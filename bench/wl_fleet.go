package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"fpsa"
)

// Shape of the fleet workload.
const (
	fleetChips    = 24
	fleetReplicas = 2
	fleetMaxRepl  = 4
	// fleetRate is the paced phase's Poisson arrival rate, requests/s over
	// all models.
	fleetRate = 3000
	// fleetCallers is the saturated phase's closed-loop caller count.
	fleetCallers = 32
	// fleetSwapModel is hot-swapped twice during the saturated phase.
	fleetSwapModel = "m_spk"
	// shedRetries is how often a client re-sends a request the fleet shed.
	shedRetries = 200
)

var fleetTenants = []string{"gold", "silver", "batch"}

// fleetModel is one served model and every version of it the run can see.
type fleetModel struct {
	name string
	mode fpsa.ExecMode
	// nets[v-1] and deps[v-1] are the trained network and deployment of
	// version v.
	nets []*fpsa.TrainedMLP
	deps []*fpsa.Deployment
}

type fleetSys struct {
	f      *fpsa.Fleet
	models []*fleetModel
	inputs [][]float64
	// order is the seeded order requests walk the input set in.
	order []int
	// swapNets are trained during set-up and swapped in during the
	// saturated phase.
	swapNets []*fpsa.TrainedMLP
	// warm[m][i] is model m's output vector for inputs[i] in the warm-up.
	warm [][][]int

	errMu sync.Mutex
	errs  []string
}

func (s *fleetSys) close() { _ = s.f.Close() } // nothing is in flight when a run closes its fleet

func setupFleet(ctx context.Context, seed int64) (*fleetSys, error) {
	f, err := fpsa.NewFleet(
		fpsa.WithFleetChips(fleetChips),
		fpsa.WithTenant("gold", fpsa.QoSGold, 0),
		fpsa.WithTenant("silver", fpsa.QoSSilver, 0),
		fpsa.WithTenant("batch", fpsa.QoSBatch, 0),
	)
	if err != nil {
		return nil, err
	}
	s := &fleetSys{f: f}
	specs := []struct {
		name  string
		mode  fpsa.ExecMode
		dims  []int
		seed  int64
		chips int
	}{
		{"m_spk", fpsa.ModeSpiking, mlpDims, modelSeed, 1},
		{"m_shard", fpsa.ModeSpiking, shardDims, modelSeed + 1, 2},
		{"m_ref", fpsa.ModeReference, mlpDims, modelSeed + 2, 1},
	}
	for _, sp := range specs {
		net, err := trainedMLP(sp.seed, sp.dims)
		if err != nil {
			s.close()
			return nil, err
		}
		opts := []fpsa.Option{fpsa.WithWeightSource(net.WeightSource()), fpsa.WithCache(f.Cache()), fpsa.WithSeed(modelSeed)}
		if sp.chips > 1 {
			opts = append(opts, fpsa.WithChips(sp.chips))
		}
		d, err := fpsa.Compile(ctx, net.Model(), opts...)
		if err != nil {
			s.close()
			return nil, err
		}
		if err := f.AddModel(ctx, sp.name, d,
			fpsa.WithModelReplicas(fleetReplicas),
			fpsa.WithModelReplicaRange(1, fleetMaxRepl),
			fpsa.WithModelEngine(fpsa.WithMode(sp.mode))); err != nil {
			s.close()
			return nil, fmt.Errorf("adding %s: %w", sp.name, err)
		}
		s.models = append(s.models, &fleetModel{name: sp.name, mode: sp.mode, nets: []*fpsa.TrainedMLP{net}, deps: []*fpsa.Deployment{d}})
	}
	for k := int64(0); k < 2; k++ {
		net, err := trainedMLP(modelSeed+100+k, mlpDims)
		if err != nil {
			s.close()
			return nil, err
		}
		s.swapNets = append(s.swapNets, net)
	}
	_, heldOut := mlpData()
	rng := rand.New(rand.NewSource(seed))
	s.inputs = clusterInputs(rng, inputsN, heldOut.X)
	s.order = rng.Perm(inputsN)
	if err := s.warmUp(ctx); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// warmUp serves the whole input set once per model, eight requests in
// flight so micro-batches fill, and keeps every output vector.
func (s *fleetSys) warmUp(ctx context.Context) error {
	s.warm = make([][][]int, len(s.models))
	for mi, fm := range s.models {
		outs := make([][]int, len(s.inputs))
		errs := make([]error, 8)
		var wg sync.WaitGroup
		for c := range errs {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(s.inputs); i += len(errs) {
					out, ver, err := s.f.Outputs(ctx, fm.name, fleetTenants[0], s.inputs[i])
					if err == nil && ver != 1 {
						err = fmt.Errorf("warm-up of %s served by version %d, want 1", fm.name, ver)
					}
					if err != nil {
						errs[c] = err
						return
					}
					outs[i] = out
				}
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		s.warm[mi] = outs
	}
	return nil
}

// fleetResp is one served reply, kept for the check after the run.
type fleetResp struct {
	req     int // request number: model req mod 3, tenant ⌊req/3⌋ mod 3
	label   int
	version int
}

// request sends request number i and reports the reply. The first few
// errors are kept to be shown.
func (s *fleetSys) request(ctx context.Context, tr *tracer, i int) (fleetResp, bool) {
	fm := s.models[i%len(s.models)]
	tenant := fleetTenants[(i/len(s.models))%len(fleetTenants)]
	x := s.inputs[s.order[i%len(s.order)]]
	id := tr.begin("client.call", 0, i+1, 1)
	out, ver, err := s.f.Outputs(ctx, fm.name, tenant, x)
	// A host stall lets an open loop's arrivals pile up behind it, and the
	// burst that follows can overrun a tenant's admission share for a few
	// milliseconds. The client does what clients do with a 429: it waits a
	// little and asks again, the clock still running from the due time.
	// Only a request that is still refused after shedRetries counts as
	// failed; every shed shows in fleet.shed_overload.
	for retry := 0; errors.Is(err, fpsa.ErrOverloaded) && retry < shedRetries; retry++ {
		time.Sleep(time.Millisecond)
		out, ver, err = s.f.Outputs(ctx, fm.name, tenant, x)
	}
	tr.end(id)
	if err != nil {
		s.errMu.Lock()
		if len(s.errs) < 3 {
			s.errs = append(s.errs, fmt.Sprintf("request %d (%s, tenant %s): %v", i, fm.name, tenant, err))
		}
		s.errMu.Unlock()
		return fleetResp{}, false
	}
	return fleetResp{req: i, label: argmax(out), version: ver}, true
}

func runFleet(ctx context.Context, cfg runConfig, bf *benchmarkFile) (*result, error) {
	s, setupS, err := repeatSetup(cfg.setupCount(wlFleet), func() (*fleetSys, error) { return setupFleet(ctx, cfg.seed) }, func(s *fleetSys) { s.close() })
	if err != nil {
		return nil, err
	}
	defer s.close()
	m := &measured{setupS: setupS, counts: map[string]int64{}, own: map[string]float64{}}
	var all [][]int
	for _, outs := range s.warm {
		all = append(all, outs...)
	}
	m.digest = vectorDigest(all)
	phaseLen := cfg.length() / 2

	// Phase paced: independent users, so an open loop; latency runs from
	// each request's due time.
	due := poissonSchedule(cfg.seed, fleetRate, phaseLen)
	paced := make([]fleetResp, len(due))
	runtime.GC()
	ph := openLoop(due, phaseLen, segments, func(i int) (int, int) {
		r, ok := s.request(ctx, cfg.tr, i)
		if !ok {
			paced[i].req = -1
			return 0, 1
		}
		paced[i] = r
		return 1, 0
	})
	// Latency here is mostly the wait for a flush timer, not work, so it is
	// reported as the wall clock read it.
	m.p50.raw = ph.segmentLatencies(0.50, 100)
	m.p99.raw = ph.segmentLatencies(0.99, 1000)
	m.own["loadgen.late_p99_ms"] = ph.lateP99()
	m.attempted, m.failed = ph.totals()

	// Phase saturated: capacity is measured closed-loop, each caller
	// waiting for its reply, with two hot-swaps of m_spk on the way: one as
	// the segment a third of the way in starts, one at two thirds.
	perCaller := make([][]fleetResp, fleetCallers)
	swapErr := make(chan error, len(s.swapNets))
	swaps := 0
	runtime.GC()
	segs := closedLoopSegments(fleetCallers, phaseLen, loopSegments, func(seg int) {
		if swaps < len(s.swapNets) && seg == (swaps+1)*loopSegments/3 {
			go func(k int) { swapErr <- s.swap(ctx, k) }(swaps)
			swaps++
		}
	}, func(c, iter int) (int, int) {
		r, ok := s.request(ctx, cfg.tr, iter*fleetCallers+c)
		if !ok {
			return 0, 1
		}
		perCaller[c] = append(perCaller[c], r)
		return 1, 0
	})
	for k := 0; k < swaps; k++ {
		if err := <-swapErr; err != nil {
			return nil, err
		}
	}
	// The paced phase's latencies stand; the saturated phase gives the
	// throughput.
	var sat measured
	sat.addSegments(segs, 1)
	m.throughput = sat.throughput
	m.attempted += sat.attempted
	m.failed += sat.failed

	m.problems = append(m.problems, s.errs...)
	replies := paced
	for _, rs := range perCaller {
		replies = append(replies, rs...)
	}
	if err := s.check(m, replies); err != nil {
		return nil, err
	}
	for _, fm := range s.models {
		if err := simOf(m, fm.deps[0]); err != nil {
			return nil, err
		}
	}
	st := s.f.Stats()
	for _, fm := range st.Models {
		m.own["fleet.shed_overload"] += float64(fm.ShedOverload)
		m.own["fleet.shed_quota"] += float64(fm.ShedQuota)
		m.own["fleet.scale_ups"] += float64(fm.ScaleUps)
		m.own["fleet.scale_downs"] += float64(fm.ScaleDowns)
		m.own["fleet.replicas_end"] += float64(fm.Replicas)
	}
	m.counts["swaps"] = int64(len(st.Swaps))
	if len(st.Swaps) != 2 {
		m.problemf("fleet recorded %d swaps, want 2", len(st.Swaps))
	}
	r := buildResult(wlFleet, cfg, bf, m)
	return r, nil
}

// swap hot-swaps m_spk to its k-th replacement, compiling it through the
// fleet's cache. The swaps run one after the other, so version k+2 is the
// k-th replacement.
func (s *fleetSys) swap(ctx context.Context, k int) error {
	net := s.swapNets[k]
	d, _, err := s.f.CompileAndSwap(ctx, fleetSwapModel, net.Model(), fpsa.WithWeightSource(net.WeightSource()), fpsa.WithSeed(modelSeed))
	if err != nil {
		return fmt.Errorf("swap %d: %w", k+1, err)
	}
	fm := s.models[0]
	fm.nets = append(fm.nets, net)
	fm.deps = append(fm.deps, d)
	return nil
}

// check recomputes every reply's label serially, with SpikingNet.Outputs of
// the deployment whose version the reply was stamped with — so a swapped-in
// version must answer exactly like a fresh deployment of its weights, and
// the sharded model exactly like its single-chip net — and counts how
// often the warm-up answers agree with the float reference.
func (s *fleetSys) check(m *measured, replies []fleetResp) error {
	type key struct{ model, version int }
	tables := make(map[key][]int)
	for mi, fm := range s.models {
		for v, d := range fm.deps {
			net, err := d.NewNet(nil)
			if err != nil {
				return err
			}
			labels := make([]int, len(s.inputs))
			for i, x := range s.inputs {
				out, err := net.Outputs(x, fm.mode)
				if err != nil {
					return fmt.Errorf("serial cross-check of %s v%d: %w", fm.name, v+1, err)
				}
				labels[i] = argmax(out)
				if v == 0 && labels[i] != argmax(s.warm[mi][i]) {
					m.failed++
					m.problemf("%s input %d: warm-up label %d, serial SpikingNet.Outputs gives %d", fm.name, i, argmax(s.warm[mi][i]), labels[i])
				}
			}
			tables[key{mi, v + 1}] = labels
		}
		for i, l := range predictAll(fm.nets[0], s.inputs) {
			if l == argmax(s.warm[mi][i]) {
				m.agree++
			}
		}
		m.refN += len(s.inputs)
	}
	wrong := 0
	for _, r := range replies {
		if r.req < 0 {
			continue
		}
		k := key{r.req % len(s.models), r.version}
		idx := s.order[r.req%len(s.order)]
		want, ok := tables[k]
		if !ok || want[idx] != r.label {
			m.failed++
			if wrong++; wrong <= 5 {
				m.problemf("request %d (%s v%d, input %d): served label %d disagrees with the serial recompute", r.req, s.models[k.model].name, r.version, idx, r.label)
			}
			continue
		}
	}
	return nil
}
