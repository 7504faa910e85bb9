package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestRunPinned: the five lines `fpsa-sim -seed 7 -samples 20` prints,
// recorded at PR 22's parent (2b7318d), where main did this work itself. The
// "spiking+variation" leg is the in-tree path that used to cross the
// spiking kernel's density threshold.
func TestRunPinned(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-seed", "7", "-samples", "20"}, &out); err != nil {
		t.Fatal(err)
	}
	const want = `trained MLP 16-24-4: float accuracy 1.000
deployed: 2 core-op stages, sampling window 64
reference          accuracy 1.000, agreement with float model 1.000
spiking            accuracy 1.000, agreement with float model 1.000
spiking+variation  accuracy 1.000, agreement with float model 1.000
`
	if got := out.String(); got != want {
		t.Errorf("output:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunRejectsBadFlags: a bad command line comes back as an error — it
// used to end the process, or (-samples -1) print accuracies of -0.000.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-no-such-flag"}, {"-samples", "-1"}, {"-samples", "0"}, {"-seed", "x"}} {
		if err := run(args, io.Discard); err == nil || err == flag.ErrHelp {
			t.Errorf("run(%q) = %v, want an error", args, err)
		}
	}
}
