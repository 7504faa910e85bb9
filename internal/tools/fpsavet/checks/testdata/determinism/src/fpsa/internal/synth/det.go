// Package synth is golden input: a bit-exact package exercising every
// determinism finding and its exemptions.
package synth

import (
	"math/rand"
	v2 "math/rand/v2"
	"os"
	"time"
)

func mapOrder(m map[int]int) int {
	sum := 0
	for k := range m { // want `map iteration order is nondeterministic`
		sum += k
	}
	return sum
}

func annotated(m map[int]int) []int {
	var keys []int
	//fpsa:nondet collects keys into a set; sorted by the caller
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

func missingReason(m map[int]int) int {
	n := 0
	//fpsa:nondet
	for range m { // want `//fpsa:nondet directive needs a reason`
		n++
	}
	return n
}

func globalRand() int {
	return rand.Intn(10) // want `global math/rand source`
}

func globalRandV2() int {
	return v2.IntN(10) // want `global math/rand source`
}

func seeded(rng *rand.Rand) int {
	return rng.Intn(10) // methods on a seeded source are fine
}

func wallClock() time.Time {
	return time.Now() // want `time.Now in a bit-exact package`
}

func envKnob() (string, bool, int) {
	path := os.Getenv("FPSA_KERNEL")      // want `os.Getenv in a bit-exact package`
	_, set := os.LookupEnv("FPSA_KERNEL") // want `os.LookupEnv in a bit-exact package`
	return path, set, len(os.Environ())   // want `os.Environ in a bit-exact package`
}

func envAudited() string {
	//fpsa:nondet names a scratch directory; never reaches a result
	return os.Getenv("TMPDIR")
}

func sliceRange(xs []int) int {
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return sum
}
