// Command alpha declares three flags on the package flag set; README.md
// documents two of them and a third it no longer declares.
package main

import (
	"flag"
	"fmt"
)

func main() {
	name := flag.String("name", "world", "who to greet")
	count := flag.Int("count", 1, "how many greetings")
	quiet := flag.Bool("quiet", false, "greet in lower case")
	flag.Parse()
	for range *count {
		if *quiet {
			fmt.Println("hello,", *name)
		} else {
			fmt.Println("HELLO,", *name)
		}
	}
}
