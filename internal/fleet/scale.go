package fleet

import (
	"sort"
	"time"
)

// The autoscaler's thresholds, in ticks of Options.ScaleInterval.
const (
	// scaleUpBacklog is the waiting count per replica that counts as
	// backlog; sustained for scaleUpTicks consecutive ticks, the model
	// gains a replica (chips permitting, up to its MaxReplicas).
	scaleUpBacklog = 4
	scaleUpTicks   = 2
	// scaleDownTicks is how many consecutive ticks with nothing waiting and
	// nothing in flight drop one replica, down to MinReplicas.
	scaleDownTicks = 40
)

// autoscale is the fleet's scaling loop: every ScaleInterval it walks
// the models (in name order, so chip contention resolves
// deterministically) and moves each engine toward its observed load —
// sustained backlog grows it, sustained idleness shrinks it.
func (f *Fleet) autoscale() {
	defer f.scaleWG.Done()
	t := time.NewTicker(f.opts.ScaleInterval)
	defer t.Stop()
	for {
		select {
		case <-f.stopScale:
			return
		case <-t.C:
			f.scaleTick()
		}
	}
}

func (f *Fleet) scaleTick() {
	f.mu.RLock()
	models := make([]*model, 0, len(f.models))
	for _, m := range f.models {
		models = append(models, m)
	}
	f.mu.RUnlock()
	sort.Slice(models, func(i, j int) bool { return models[i].name < models[j].name })
	for _, m := range models {
		f.scaleModel(m)
	}
}

// scaleModel applies one tick's decision to one model: a resize re-points
// it to an engine one replica larger or smaller, as a swap does, keeping
// its version. It yields to an in-flight swap (TryLock) rather than
// queueing behind it: the swap replaces the engine anyway, so this tick's
// observation is stale.
func (f *Fleet) scaleModel(m *model) {
	if !m.swapMu.TryLock() {
		return
	}
	defer m.swapMu.Unlock()
	if m.closed.Load() {
		return
	}
	v, n := m.cur.Load(), int(m.replicas.Load())
	depth := v.eng.QueueDepth()
	switch {
	case depth >= n*scaleUpBacklog:
		m.idleTicks = 0
		m.backlogTicks++
		if m.backlogTicks < scaleUpTicks || n >= m.cfg.MaxReplicas {
			return
		}
		m.backlogTicks = 0
		// Out of chips or a failed build: the next sustained backlog retries.
		if f.repoint(m, v.id, m.src, n+1) == nil {
			m.scaleUps.Add(1)
		}
	case depth == 0 && m.inflight.Load() == 0:
		m.backlogTicks = 0
		m.idleTicks++
		if m.idleTicks < scaleDownTicks || n <= m.cfg.MinReplicas {
			return
		}
		// One replica per idle period, so a shrinking engine re-earns each
		// step down.
		m.idleTicks = 0
		if f.repoint(m, v.id, m.src, n-1) == nil {
			m.scaleDowns.Add(1)
		}
	default:
		m.backlogTicks, m.idleTicks = 0, 0
	}
}
