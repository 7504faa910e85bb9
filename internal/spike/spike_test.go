package spike

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUniformTrainCount(t *testing.T) {
	for window := 1; window <= 128; window *= 2 {
		for count := 0; count <= window; count++ {
			tr := UniformTrain(count, window)
			if got := tr.Count(); got != count {
				t.Fatalf("UniformTrain(%d,%d).Count() = %d", count, window, got)
			}
			if got := tr.Window(); got != window {
				t.Fatalf("UniformTrain(%d,%d).Window() = %d", count, window, got)
			}
		}
	}
}

func TestUniformTrainClamps(t *testing.T) {
	if got := UniformTrain(-3, 16).Count(); got != 0 {
		t.Errorf("UniformTrain(-3,16).Count() = %d, want 0", got)
	}
	if got := UniformTrain(99, 16).Count(); got != 16 {
		t.Errorf("UniformTrain(99,16).Count() = %d, want 16", got)
	}
}

func TestUniformTrainEvenSpacing(t *testing.T) {
	// Half-rate train must alternate with no two adjacent spikes closer
	// than the ideal gap minus one.
	tr := UniformTrain(32, 64)
	prev := -2
	for i, s := range tr {
		if !s {
			continue
		}
		if i-prev < 2 {
			t.Fatalf("UniformTrain(32,64): spikes at %d and %d too close", prev, i)
		}
		prev = i
	}
}

// TestUniformTrainFiresLastCycle pins the layout xbar's packed float walk
// relies on to end an item at its last live cycle: every train with at
// least one spike fires at cycle Γ−1, since the Bresenham accumulator
// reaches count·Γ, a multiple of Γ, there. So the last live cycle of any
// item with a firing row is Γ−1 and no zero-drive cycle follows it.
func TestUniformTrainFiresLastCycle(t *testing.T) {
	for window := 1; window <= 256; window++ {
		for count := 1; count <= window; count++ {
			if tr := UniformTrain(count, window); !tr[window-1] {
				t.Fatalf("UniformTrain(%d, %d) is silent at cycle %d", count, window, window-1)
			}
		}
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ v, window, want int }{
		{-1, 64, 0}, {0, 64, 0}, {30, 64, 30}, {64, 64, 64}, {65, 64, 64},
	}
	for _, tc := range cases {
		if got := Clamp(tc.v, tc.window); got != tc.want {
			t.Errorf("Clamp(%d,%d) = %d, want %d", tc.v, tc.window, got, tc.want)
		}
	}
}

func TestQuickUniformTrainRoundTrip(t *testing.T) {
	f := func(count uint8) bool {
		c := int(count) % 65
		return UniformTrain(c, 64).Count() == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickTrainCountMatchesManual(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		tr := NewTrain(64)
		want := 0
		for i := range tr {
			if rng.Intn(2) == 1 {
				tr[i] = true
				want++
			}
		}
		return tr.Count() == want
	}
	for i := 0; i < 200; i++ {
		if !f() {
			t.Fatal("Count mismatch on random train")
		}
	}
}
