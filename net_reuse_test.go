package fpsa

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"slices"
	"sync"
	"testing"
)

// TestSpikingNetNoisySequencePinned pins twenty calls on the faulted
// 16-24-4 MLP after SetSeed: batched and single-sample noisy calls
// interleaved with spiking and reference ones, and a rejected noisy call in
// the middle. Every noisy call is a fresh programming-variation draw off
// the SetSeed stream, so the digest covers the whole draw sequence, how
// ideal calls leave it alone and how a rejected call leaves it where it
// was. The value was recorded when every call built its own executor;
// however a net comes by its executor, it must reproduce it bit for bit.
func TestSpikingNetNoisySequencePinned(t *testing.T) {
	d, batch := deployNoisyFaulted(t)
	sn := mustNet(t, d)
	sn.SetSeed(11)
	h := fnv.New64a()
	var buf [8]byte
	put := func(vs ...int) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	short := [][]float64{batch[0], batch[1][:3]}
	for call := range 20 {
		items := batch[call*3 : call*3+8]
		var err error
		switch call {
		case 10:
			if _, err := outputsBatch(sn, short, ModeSpikingNoisy); !errors.Is(err, ErrInvalidArgument) {
				t.Fatalf("call %d: short item gave %v, want ErrInvalidArgument", call, err)
			}
			continue
		case 3, 13:
			var outs [][]int
			outs, err = outputsBatch(sn, items, ModeSpiking)
			for _, out := range outs {
				put(out...)
			}
		case 7, 17:
			var outs [][]int
			outs, err = outputsBatch(sn, items, ModeReference)
			for _, out := range outs {
				put(out...)
			}
		case 2, 8, 15:
			var out []int
			out, err = sn.Outputs(items[0], ModeSpikingNoisy)
			put(out...)
		case 5, 19:
			var class int
			class, err = sn.Classify(items[1], ModeSpikingNoisy)
			put(class)
		case 1, 6, 12, 18:
			var classes []int
			classes, err = sn.ClassifyBatch(items, ModeSpikingNoisy)
			put(classes...)
		default:
			var outs [][]int
			outs, err = outputsBatch(sn, items, ModeSpikingNoisy)
			for _, out := range outs {
				put(out...)
			}
		}
		if err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
	}
	if got, want := h.Sum64(), uint64(0xe0e5491a5130aa80); got != want {
		t.Errorf("sequence digest = %#x, want %#x", got, want)
	}
}

// TestSpikingNetConcurrentReuse races calls in all three modes through one
// net. Spiking and reference calls are deterministic, so each concurrent one
// must equal the serial answer. Noisy calls each draw one seed off the
// SetSeed stream, in whatever order the goroutines reach it: the concurrent
// noisy batches must be the first N serial draws, each used once.
func TestSpikingNetConcurrentReuse(t *testing.T) {
	d, batch := deployNoisyFaulted(t)
	sn := mustNet(t, d)
	items := batch[:12]
	const goroutines, rounds = 4, 3
	const noisyCalls = goroutines * rounds
	ideal := map[ExecMode][][]int{}
	for _, mode := range []ExecMode{ModeReference, ModeSpiking} {
		outs, err := outputsBatch(sn, items, mode)
		if err != nil {
			t.Fatal(err)
		}
		ideal[mode] = outs
	}
	sn.SetSeed(23)
	serial := make([][][]int, noisyCalls)
	for i := range serial {
		outs, err := outputsBatch(sn, items, ModeSpikingNoisy)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = outs
	}

	sn.SetSeed(23)
	noisy := make([][][]int, noisyCalls)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				for _, mode := range []ExecMode{ModeSpiking, ModeReference} {
					outs, err := outputsBatch(sn, items, mode)
					if err != nil {
						errs <- err
						return
					}
					if !equalOutputs(outs, ideal[mode]) {
						errs <- errors.New("concurrent ideal call differs from the serial one")
						return
					}
				}
				outs, err := outputsBatch(sn, items, ModeSpikingNoisy)
				if err != nil {
					errs <- err
					return
				}
				noisy[g*rounds+r] = outs
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	used := make([]bool, noisyCalls)
	for c, outs := range noisy {
		k := -1
		for i, s := range serial {
			if !used[i] && equalOutputs(s, outs) {
				k = i
				break
			}
		}
		if k < 0 {
			t.Fatalf("concurrent noisy call %d matches no unused serial draw of the first %d", c, noisyCalls)
		}
		used[k] = true
	}
}

// equalOutputs reports whether two batches of output counts are identical.
func equalOutputs(a, b [][]int) bool {
	return slices.EqualFunc(a, b, slices.Equal[[]int])
}
