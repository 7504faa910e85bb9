// Command beta declares its one flag on a flag set, fully documented.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	fs := flag.NewFlagSet("beta", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "random seed")
	_ = fs.Parse(os.Args[1:])
	fmt.Println(*seed)
}
