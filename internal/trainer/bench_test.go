package trainer

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkTrain trains the bench workloads' two MLP shapes the way
// fpsa.TrainMLP does: 600 samples of 16 features in 4 classes, 30 epochs.
// One op is one whole Train call.
func BenchmarkTrain(b *testing.B) {
	data := rand.New(rand.NewSource(1))
	train, _ := SyntheticClusters(data, 900, 16, 4, 0.08).Split(2.0 / 3)
	for _, dims := range [][]int{{16, 24, 4}, {16, 48, 48, 4}} {
		b.Run(fmt.Sprint(dims), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				rng := rand.New(rand.NewSource(2))
				m, err := NewMLP(rng, dims)
				if err != nil {
					b.Fatal(err)
				}
				m.Train(rng, train, TrainOptions{Epochs: 30})
			}
		})
	}
}
