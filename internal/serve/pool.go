package serve

import (
	"sync/atomic"

	"fpsa/internal/synth"
)

// pool holds the executors no call holds right now: a fixed array of one
// slot per executor, each holding an idle executor or nil. A borrow claims
// a full slot by CAS and a return fills an empty one by CAS, so a borrow
// that finds an executor idle, and every return, take no lock and hand
// nothing to another goroutine.
//
// A borrower that finds every slot empty counts itself into waiting, scans
// the slots once more, and only then parks on wake. A return that reads
// waiting > 0 after filling its slot drops one token into wake without
// blocking, and a waiter that receives a token scans again. A token
// carries no executor: a returned executor sits in its slot for whoever
// scans first, so a running caller barges past the parked ones, as a
// running goroutine barges past a sync.Mutex's waiters in normal mode. The
// pool is not FIFO: a waiter can lose a scan to a caller that arrived
// after it, and then parks again until the next return.
//
// No wake-up is lost. The atomics are sequentially consistent; a waiter
// adds itself to waiting before its last scan, and a return stores its
// executor before it reads waiting. So of a waiter W's last scan and a
// return's read of waiting, whichever comes second sees the other's write:
// either W's scan finds the executor, or the return sees W and drops a
// token. The drop is skipped only when wake's buffer is full, and a
// receiver never parks while the buffer holds a token: so then nobody is
// parked, and W, when it parks, receives a buffered token at once and
// scans again, after the store. Every token received is a scan, and a scan
// that misses the executor means some call took it, which will return it —
// with a token, if anyone waits then.
// Stale tokens (one whose waiter found an executor or left on its ctx)
// cost a later waiter one extra scan, nothing more.
type pool struct {
	slots   []atomic.Pointer[synth.Executor]
	waiting atomic.Int64 // borrowers counted in after finding the pool empty
	// wake carries no executor. Its capacity, one token per slot, lets a
	// burst of returns wake as many waiters as executors came back; any
	// capacity of one or more keeps the argument above.
	wake chan struct{}
}

// newPool makes an empty pool of n slots. Every borrow and return writes
// the slot array, so it should not share a cache line with anything else:
// up to 8 slots it is one 64-byte allocation, which the allocator places
// on a line of its own, where a smaller array would share its line with
// whatever was allocated beside it — a fleet's route, say, which every
// request reads.
func newPool(n int) pool {
	return pool{slots: make([]atomic.Pointer[synth.Executor], n, max(n, 8)), wake: make(chan struct{}, n)}
}

// take claims an idle executor, or returns nil when it finds none.
func (p *pool) take() *synth.Executor {
	for i := range p.slots {
		s := &p.slots[i]
		if ex := s.Load(); ex != nil && s.CompareAndSwap(ex, nil) {
			return ex
		}
	}
	return nil
}

// put stores ex in an empty slot and, when a borrower is waiting, drops
// one wake token without blocking.
func (p *pool) put(ex *synth.Executor) {
	for i := range p.slots {
		s := &p.slots[i]
		if s.Load() == nil && s.CompareAndSwap(nil, ex) {
			if p.waiting.Load() > 0 {
				select {
				case p.wake <- struct{}{}:
				default:
				}
			}
			return
		}
	}
	panic("serve: more executors returned than the pool has slots")
}

// idle counts the executors in the pool right now.
func (p *pool) idle() int {
	n := 0
	for i := range p.slots {
		if p.slots[i].Load() != nil {
			n++
		}
	}
	return n
}
