// Command fpsa-sim trains a small network, deploys it onto simulated FPSA
// processing elements, and compares the float model against the three
// hardware execution modes — integer reference, cycle-level spiking, and
// spiking with ReRAM programming variation.
//
// Usage:
//
//	fpsa-sim -samples 40 -seed 7
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"fpsa"
)

// errUsage marks an error the flag set has already reported on stderr.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "fpsa-sim:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args (without the program name) and
// prints the comparison to stdout. A bad flag is reported by the flag set
// and comes back as an error instead of ending the process.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fpsa-sim", flag.ContinueOnError)
	seed := fs.Int64("seed", 7, "data/train/programming seed")
	samples := fs.Int("samples", 40, "test samples to classify")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	if *samples < 1 {
		return fmt.Errorf("-samples %d: need at least one sample", *samples)
	}

	ds := fpsa.SyntheticDataset(*seed, 900, 16, 4, 0.08)
	train, test := ds.Split(2.0 / 3)
	net, err := fpsa.TrainMLP(*seed, []int{16, 24, 4}, train, 40)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trained MLP 16-24-4: float accuracy %.3f\n", net.Accuracy(test))

	// One compile carries the weights and the variation seed; the
	// runnable net derives from the deployment.
	d, err := fpsa.Compile(context.Background(), net.Model(),
		fpsa.WithWeightSource(net.WeightSource()), fpsa.WithSeed(*seed))
	if err != nil {
		return err
	}
	sn, err := d.NewNet(nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "deployed: %d core-op stages, sampling window %d\n", sn.Stages(), sn.Window())

	modes := []struct {
		name string
		mode fpsa.ExecMode
	}{
		{"reference", fpsa.ModeReference},
		{"spiking", fpsa.ModeSpiking},
		{"spiking+variation", fpsa.ModeSpikingNoisy},
	}
	n := *samples
	if n > len(test.X) {
		n = len(test.X)
	}
	for _, m := range modes {
		agree, correct := 0, 0
		for i := 0; i < n; i++ {
			label, err := sn.Classify(test.X[i], m.mode)
			if err != nil {
				return err
			}
			if label == net.Predict(test.X[i]) {
				agree++
			}
			if label == test.Y[i] {
				correct++
			}
		}
		fmt.Fprintf(stdout, "%-18s accuracy %.3f, agreement with float model %.3f\n",
			m.name, float64(correct)/float64(n), float64(agree)/float64(n))
	}
	return nil
}
