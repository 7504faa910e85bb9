package fpsa

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEngineCloseVsInflight races Engine.Close against a storm of
// concurrent Classify/Outputs calls and pins the drain contract the
// fleet layer builds on: every request either completes with a full,
// correct result or fails with ErrClosed — never a partial result, and
// never any other error. Requests submitted after Close must see
// ErrClosed.
func TestEngineCloseVsInflight(t *testing.T) {
	d, _, test := trainedDeployment(t)
	// Ground truth for result integrity.
	ref, err := d.NewEngine(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]int, len(test.X))
	for i, x := range test.X {
		if want[i], err = engineOutputs(context.Background(), ref, x); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 3; round++ {
		eng, err := d.NewEngine(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var (
			completed atomic.Uint64
			closedErr atomic.Uint64
			bad       atomic.Uint64
			other     atomic.Value
			wg        sync.WaitGroup
		)
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					idx := (g*50 + i) % len(test.X)
					out, err := engineOutputs(context.Background(), eng, test.X[idx])
					switch {
					case err == nil:
						completed.Add(1)
						if !reflect.DeepEqual(out, want[idx]) {
							bad.Add(1)
						}
					case errors.Is(err, ErrClosed):
						closedErr.Add(1)
						if out != nil {
							bad.Add(1) // partial result alongside ErrClosed
						}
					default:
						other.CompareAndSwap(nil, err)
					}
				}
			}(g)
		}
		close(start)
		// Let some requests land in flight, then close under them.
		time.Sleep(time.Duration(round) * 500 * time.Microsecond)
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if e := other.Load(); e != nil {
			t.Fatalf("round %d: unexpected error class: %v", round, e)
		}
		if bad.Load() != 0 {
			t.Fatalf("round %d: %d corrupt or partial results", round, bad.Load())
		}
		if completed.Load()+closedErr.Load() != 8*50 {
			t.Fatalf("round %d: %d completed + %d closed ≠ %d offered",
				round, completed.Load(), closedErr.Load(), 8*50)
		}
		// Late requests on a fully closed engine are always ErrClosed, on
		// both public entry points.
		if _, err := eng.ClassifyBatch(context.Background(), test.X[:1]); !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: post-close ClassifyBatch = %v, want ErrClosed", round, err)
		}
		if out, err := engineOutputs(context.Background(), eng, test.X[0]); !errors.Is(err, ErrClosed) || out != nil {
			t.Fatalf("round %d: post-close Outputs = %v, %v; want nil, ErrClosed", round, out, err)
		}
	}
}
