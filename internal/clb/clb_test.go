package clb

import (
	"testing"
	"testing/quick"

	"fpsa/internal/device"
)

func TestNewLUTValidation(t *testing.T) {
	if _, err := NewLUT(nil); err == nil {
		t.Error("empty table accepted")
	}
	if _, err := NewLUT(make([]bool, 3)); err == nil {
		t.Error("non-power-of-two table accepted")
	}
	l, err := NewLUT(make([]bool, 64))
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Inputs(); got != 6 {
		t.Errorf("Inputs = %d, want 6", got)
	}
}

func TestLUTEvalXor(t *testing.T) {
	l, err := LUTFromFunc(2, func(in []bool) bool { return in[0] != in[1] })
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a, b, want bool
	}{
		{false, false, false}, {true, false, true}, {false, true, true}, {true, true, false},
	}
	for _, tc := range cases {
		got, err := l.Eval([]bool{tc.a, tc.b})
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("xor(%v,%v) = %v", tc.a, tc.b, got)
		}
	}
}

func TestLUTEvalArityMismatch(t *testing.T) {
	l, _ := LUTFromFunc(3, func(in []bool) bool { return in[0] })
	if _, err := l.Eval([]bool{true}); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestQuickLUTFromFuncFaithful(t *testing.T) {
	// LUTFromFunc must agree with the sampled function on every input.
	f := func(in []bool) bool { return (in[0] && in[1]) || (!in[2] && in[3]) }
	l, err := LUTFromFunc(4, f)
	if err != nil {
		t.Fatal(err)
	}
	check := func(idx uint8) bool {
		in := make([]bool, 4)
		for b := range in {
			in[b] = idx&(1<<uint(b)) != 0
		}
		got, err := l.Eval(in)
		return err == nil && got == f(in)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestBlocksNeeded(t *testing.T) {
	p := device.Params45nm
	cases := []struct{ luts, want int }{
		{0, 0}, {1, 1}, {128, 1}, {129, 2}, {1024, 8},
	}
	for _, tc := range cases {
		if got := BlocksNeeded(p, tc.luts); got != tc.want {
			t.Errorf("BlocksNeeded(%d) = %d, want %d", tc.luts, got, tc.want)
		}
	}
}

// TestCLBBudget: the published 45 nm CLB the mapper packs controllers into
// holds 128 LUTs in 5998.272 µm².
func TestCLBBudget(t *testing.T) {
	p := device.Params45nm
	if p.CLBLUTs != 128 {
		t.Errorf("CLB budget = %d LUTs, want 128", p.CLBLUTs)
	}
	if got := p.CLB.AreaUM2; got != 5998.272 {
		t.Errorf("CLB area = %v, want 5998.272", got)
	}
}
