package fleet

import (
	"sort"
	"time"
)

// autoscale is the fleet's scaling loop: every ScaleInterval it walks
// the models (in name order, so chip contention resolves
// deterministically) and moves each pool toward its observed load —
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

// scaleModel applies one tick's decision to one model. It yields to an
// in-flight swap (TryLock) rather than queueing behind it: the swap will
// rebuild the pool anyway, so this tick's observation is stale.
func (f *Fleet) scaleModel(m *model) {
	if !m.swapMu.TryLock() {
		return
	}
	defer m.swapMu.Unlock()
	if m.closed.Load() {
		return
	}
	v := m.cur.Load()
	n, depth := v.count()
	switch {
	case n > 0 && depth >= n*f.opts.ScaleUpBacklog:
		m.idleTicks = 0
		m.backlogTicks++
		if m.backlogTicks < f.opts.ScaleUpTicks || n >= m.cfg.MaxReplicas {
			return
		}
		m.backlogTicks = 0
		if !f.tryReserveChips(m.cfg.ChipsPerReplica) {
			return // pool exhausted; retry when chips free up
		}
		r, err := m.src.New()
		if err != nil {
			f.releaseChips(m.cfg.ChipsPerReplica)
			return
		}
		if !v.addReplica(r) {
			// Retired between count and add (close racing in); drop the
			// orphan.
			_ = r.Close()
			f.releaseChips(m.cfg.ChipsPerReplica)
			return
		}
		m.replicas.Add(1)
		m.scaleUps.Add(1)
	case depth == 0 && m.inflight.Load() == 0:
		m.backlogTicks = 0
		m.idleTicks++
		if m.idleTicks < f.opts.IdleTicks || n <= m.cfg.MinReplicas {
			return
		}
		// One replica per idle period, so a shrinking pool re-earns each
		// step down.
		m.idleTicks = 0
		if r := v.removeReplica(m.cfg.MinReplicas); r != nil {
			// Close waits for the requests already inside the replica; one
			// that pinned it but arrives after Close began retries on a live
			// replica (see Infer).
			m.replicas.Add(-1)
			_ = r.Close()
			f.releaseChips(m.cfg.ChipsPerReplica)
			m.scaleDowns.Add(1)
		}
	default:
		m.backlogTicks, m.idleTicks = 0, 0
	}
}
