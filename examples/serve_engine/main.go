// Serve a deployed spiking network under concurrent load: train a small
// MLP, deploy it, derive the inference engine — a pool of programmed
// executors that each request borrows and runs on from its own goroutine —
// and fire classifications from many goroutines; then compare the engine's
// answers and measured throughput against the serial Classify loop, which
// runs one sample at a time on the net's one executor.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"fpsa"
)

func main() {
	ctx := context.Background()
	ds := fpsa.SyntheticDataset(7, 900, 16, 4, 0.08)
	train, test := ds.Split(2.0 / 3)
	net, err := fpsa.TrainMLP(7, []int{16, 24, 4}, train, 40)
	if err != nil {
		log.Fatal(err)
	}
	d, err := fpsa.Compile(ctx, net.Model(), fpsa.WithWeightSource(net.WeightSource()))
	if err != nil {
		log.Fatal(err)
	}
	sn, err := d.NewNet(nil)
	if err != nil {
		log.Fatal(err)
	}

	const samples = 48
	serialStart := time.Now()
	serial := make([]int, samples)
	for i := range serial {
		if serial[i], err = sn.Classify(test.X[i], fpsa.ModeSpiking); err != nil {
			log.Fatal(err)
		}
	}
	serialDur := time.Since(serialStart)

	eng, err := d.NewEngine(ctx)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	const clients = 8
	var wg sync.WaitGroup
	mismatches := make([]int, clients)
	engineStart := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < samples; i++ {
				label, err := eng.Classify(ctx, test.X[i])
				if err != nil {
					log.Fatal(err)
				}
				if label != serial[i] {
					mismatches[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	engineDur := time.Since(engineStart)

	total := 0
	for _, m := range mismatches {
		total += m
	}
	fmt.Printf("serial: %d samples in %v (%.0f samples/s)\n",
		samples, serialDur.Round(time.Millisecond),
		float64(samples)/serialDur.Seconds())
	fmt.Printf("engine: %d clients x %d samples, %d mismatches\n", clients, samples, total)
	fmt.Printf("engine: %s\n", eng.Stats())
	fmt.Printf("engine wall time %v for %d samples (%.1fx serial rate)\n",
		engineDur.Round(time.Millisecond), clients*samples,
		(float64(clients*samples)/engineDur.Seconds())/(float64(samples)/serialDur.Seconds()))
}
