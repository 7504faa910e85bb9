package trainer

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestTrainedWeightsPinned fixes what 30 epochs of SGD produce, bit for
// bit: the SHA-256 of math.Float64bits of every trained weight, then of
// every Forward activation on a held-out set. The shapes are the bench's
// two (16-24-4, 16-48-48-4) and an odd one (20-7-3) whose widths leave
// tails after any 4- or 8-wide blocking.
func TestTrainedWeightsPinned(t *testing.T) {
	cases := []struct {
		dims    []int
		classes int
		seed    int64
		lr      float64
		want    string
	}{
		{[]int{16, 24, 4}, 4, 11, 0, "05b080623c05b463ab8a1a5768cf7ddf62b7c735fd5d0d931f53ce62cc9d4673"},
		{[]int{16, 48, 48, 4}, 4, 12, 0, "1b3cbb6fe942f721851b14f1cf3cec35039bf70c8b59b7063553969b4ab602cf"},
		{[]int{20, 7, 3}, 3, 13, 0.03, "5057f9820bb42569caddcd58abbef35077b8b08841b0542bd5e63ba9bb105f5b"},
	}
	for _, c := range cases {
		name := fmt.Sprint(c.dims)
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(c.seed))
			train, test := SyntheticClusters(rng, 450, c.dims[0], c.classes, 0.1).Split(2.0 / 3)
			m, err := NewMLP(rng, c.dims)
			if err != nil {
				t.Fatal(err)
			}
			m.Train(rng, train, TrainOptions{Epochs: 30, LR: c.lr})
			h := sha256.New()
			put := func(v float64) {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
			for _, w := range m.W {
				for _, row := range w {
					for _, v := range row {
						put(v)
					}
				}
			}
			for _, x := range test.X {
				for _, a := range m.Forward(x)[1:] {
					for _, v := range a {
						put(v)
					}
				}
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.want {
				t.Errorf("trained %v: digest %s, want %s", c.dims, got, c.want)
			}
		})
	}
}
