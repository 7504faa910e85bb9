package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"fpsa"
)

// The models are part of the workload definitions, like the benchmark zoo:
// their weights, training data, fault maps and placement seed all derive
// from modelSeed and are the same in every run. The run's -seed drives
// what the program receives — input values, input order, the Poisson
// schedule and the request mix — because host time depends so strongly on
// the weights (conv throughput varies twofold between weight seeds) that a
// per-seed model would make runs with different seeds incomparable.
const modelSeed = 1

const (
	// inputsN is the size of each runtime workload's input set. The warm-up
	// pass serves all of it once; the digest and the expected outputs come
	// from that pass, so they do not depend on how long the timed run is.
	inputsN = 256
	// segments is how many equal parts an open-loop phase is cut into, and
	// loopSegments how many a closed loop is run as; every host-time metric
	// is the median over them.
	segments     = 10
	loopSegments = 20
	// crossCheckStride picks the served samples that are recomputed
	// serially: every 61st, about 1 in 64, and coprime with inputsN so the
	// sample walks the whole input set.
	crossCheckStride = 61
)

// Shape of the conv workload's network: 2×10×10 → Conv2D(8,3,1,1)+ReLU →
// MaxPool(2,2) → GlobalAvgPool → FC(4)+ReLU.
const (
	convInC     = 2
	convInHW    = 10
	convOutC    = 8
	convClasses = 4
)

// runConfig is one run's command line.
type runConfig struct {
	seed    int64
	seconds float64
	// tr is nil in an end-to-end run. In the traced run the workload's loop
	// records one client-side span per call into it.
	tr *tracer
	// setups overrides how often the workload sets up (0 = its own count).
	setups int
}

func (c runConfig) setupCount(workload string) int {
	if c.setups > 0 {
		return c.setups
	}
	return setupCounts[workload]
}

func (c runConfig) length() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// measured is what a workload's set-up and timed loop hand back, before
// the rows are made.
type measured struct {
	setupS hostSamples
	// throughput, p50 and p99 are per-segment samples.
	throughput, p50, p99 hostSamples
	attempted, failed    int64
	digest               string
	counts               map[string]int64
	// simLatencyUS and simEnergyUJ hold one value per model of the workload.
	simLatencyUS, simEnergyUJ []float64
	// agree of the refN labels served in the warm-up pass equal the float
	// reference's; refN == 0 means the workload has no reference. The pass
	// is the same in every run, so the share repeats exactly.
	agree, refN int
	// served counts the samples served in the timed loop.
	served   int64
	problems []string
	// own holds per-layer facts only this loop can know.
	own map[string]float64
	// extra holds rows only one workload has, as per-round samples.
	extra map[string]*hostSamples
}

// hostSamples are the samples of one host-time metric — one per segment,
// round or set-up — each with the factor that turns it into what a host of
// speed 1 would have read: the host's speed as calibrated around the sample
// for a time, its inverse for a rate. Samples of time spent waiting, not
// working, carry no factors and are reported as measured.
type hostSamples struct {
	raw, factor []float64
}

// addTime adds the time a piece of work took on a host of the given speed.
func (h *hostSamples) addTime(v, speed float64) {
	h.raw = append(h.raw, v)
	h.factor = append(h.factor, speed)
}

// addRate adds work done per second on a host of the given speed.
func (h *hostSamples) addRate(v, speed float64) { h.addTime(v, 1/speed) }

// atReferenceSpeed returns the samples as a host of speed 1 would have
// read them.
func (h hostSamples) atReferenceSpeed() []float64 {
	if len(h.factor) != len(h.raw) {
		return h.raw
	}
	out := make([]float64, len(h.raw))
	for i, v := range h.raw {
		out[i] = v * h.factor[i]
	}
	return out
}

// addSegments fills throughput, the median call latency and the totals
// from a closed loop's segments. A segment with fewer than minCalls calls
// reports no latency.
func (m *measured) addSegments(segs []loopSegment, minCalls int) {
	for _, sg := range segs {
		m.throughput.addRate(sg.rate(), sg.speed)
		for _, p50 := range sg.segmentLatencies(0.50, minCalls) {
			m.p50.addTime(p50, sg.speed)
		}
		a, f := sg.totals()
		m.attempted += a
		m.failed += f
	}
}

func (m *measured) problemf(format string, args ...any) {
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

// buildResult turns what was measured into the workload's end-to-end rows.
func buildResult(name string, cfg runConfig, bf *benchmarkFile, m *measured) *result {
	r := &result{Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Attempted: m.attempted, Failed: m.failed,
		Digest: m.digest, Counts: m.counts, Problems: m.problems, Own: m.own}
	for _, def := range endToEnd {
		if !def.appliesTo(name) {
			continue
		}
		bound := bf.boundFor(def)
		switch def.Name {
		case "setup_s":
			// Set-up is repeated and its median reported, but its spread is
			// not what decides whether the run resolved.
			r.addHost(def, math.Inf(1), m.setupS)
		case "throughput_sps":
			r.addHost(def, bound, m.throughput)
		case "p50_ms":
			r.addHost(def, bound, m.p50)
		case "p99_ms":
			r.addHost(def, bound, m.p99)
		case "compile_s", "warm_compile_ms":
			r.addHost(def, bound, *m.extra[def.Name])
		case "sim_latency_us":
			// Sorted, so the value does not depend on the order the seed
			// put the workload's models in.
			r.addValue(def, geomean(sortedCopy(m.simLatencyUS)))
		case "sim_energy_uj":
			r.addValue(def, geomean(sortedCopy(m.simEnergyUJ)))
		case "ref_agreement":
			if m.refN > 0 {
				r.addValue(def, float64(m.agree)/float64(m.refN))
			}
		case "failed_share":
			share := 0.0
			if m.attempted > 0 {
				share = float64(m.failed) / float64(m.attempted)
			}
			r.addValue(def, share)
		}
	}
	return r
}

// repeatSetup sets the workload up n times, timing each and calibrating
// the host's speed in between, closes all but the last and returns that
// one with the timings.
func repeatSetup[T any](n int, setup func() (T, error), closeFn func(T)) (T, hostSamples, error) {
	var sys T
	var times hostSamples
	var took []float64
	var sp speeds
	for i := 0; i < n; i++ {
		if i > 0 {
			closeFn(sys)
		}
		runtime.GC()
		sp.mark()
		t0 := time.Now()
		var err error
		sys, err = setup()
		if err != nil {
			return sys, times, err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	sp.mark()
	for i, speed := range sp.around() {
		times.addTime(took[i], speed)
	}
	return sys, times, nil
}

// labelDigest is the SHA-256 over labels in input order.
func labelDigest(labels []int) string {
	h := sha256.New()
	var buf [8]byte
	for _, l := range labels {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(l)))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// vectorDigest is the SHA-256 over output vectors in input order.
func vectorDigest(outs [][]int) string {
	h := sha256.New()
	var buf [8]byte
	for _, out := range outs {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(out)))
		h.Write(buf[:])
		for _, v := range out {
			binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// imageInputs draws n inputs for the conv network: every pixel uniform in
// [0, 1) plus a brightness offset in ±0.4 drawn per sample and channel,
// clamped. Spike density stays about one half, and the offsets give the
// global-average-pooled network something to tell inputs apart by.
func imageInputs(rng *rand.Rand, n int) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, 0, convInC*convInHW*convInHW)
		for c := 0; c < convInC; c++ {
			offset := (rng.Float64() - 0.5) * 0.8
			for k := 0; k < convInHW*convInHW; k++ {
				x = append(x, clamp01(rng.Float64()+offset))
			}
		}
		xs[i] = x
	}
	return xs
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// sparseInputs draws n feature vectors at a target spike density: half
// the features silent, the rest uniform below four times the density.
func sparseInputs(rng *rand.Rand, n, dim int, density float64) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, dim)
		for j := range xs[i] {
			if rng.Intn(2) == 0 {
				xs[i][j] = rng.Float64() * 4 * density
			}
		}
	}
	return xs
}

// clusterInputs draws n inputs for the trained MLPs: held-out samples of
// the training distribution, picked and jittered by the run's seed.
func clusterInputs(rng *rand.Rand, n int, pool [][]float64) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		src := pool[rng.Intn(len(pool))]
		x := make([]float64, len(src))
		for j, v := range src {
			x[j] = clamp01(v + (rng.Float64()-0.5)*0.04)
		}
		xs[i] = x
	}
	return xs
}

// mlpData is the fixed dataset the MLPs train on (two thirds) and the
// held-out pool their inputs are drawn from.
func mlpData() (train, heldOut fpsa.Dataset) {
	return fpsa.SyntheticDataset(modelSeed, 900, 16, 4, 0.08).Split(2.0 / 3)
}

const mlpEpochs = 30

var (
	mlpDims   = []int{16, 24, 4}
	shardDims = []int{16, 48, 48, 4}
)

// simOf reads the simulated-hardware clock for one deployment.
func simOf(m *measured, d *fpsa.Deployment) error {
	p, err := d.Performance()
	if err != nil {
		return err
	}
	m.simLatencyUS = append(m.simLatencyUS, p.LatencyUS)
	m.simEnergyUJ = append(m.simEnergyUJ, p.EnergyUJ)
	return nil
}

// served is a runtime workload set up and warm: a closed-loop target with
// its inputs, what it answered for each during warm-up, and the
// deployment the answers can be recomputed from.
type served struct {
	inputs  [][]float64
	batch   int
	callers int
	mode    fpsa.ExecMode
	// net is the trained float model behind the deployment; nil for the
	// conv network's random weights.
	net      *fpsa.TrainedMLP
	dep      *fpsa.Deployment
	classify func(ctx context.Context, batch [][]float64) ([]int, error)
	close    func()
	// expected[i] is the label served for inputs[i] in the warm-up pass. In
	// a noisy mode every call draws new variation, so later answers may
	// differ and are checked by replaying the variation stream instead.
	expected []int
}

// warmUp serves the whole input set once, in input order, and records the
// answers.
func (s *served) warmUp(ctx context.Context) error {
	s.expected = s.expected[:0]
	for lo := 0; lo < len(s.inputs); lo += s.batch {
		labels, err := s.classify(ctx, s.inputs[lo:lo+s.batch])
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		s.expected = append(s.expected, labels...)
	}
	return nil
}

// agreement counts how many warm-up answers equal the float reference's
// label for the same input.
func (s *served) agreement(m *measured, ref []int) {
	for i, l := range s.expected {
		if l == ref[i] {
			m.agree++
		}
	}
	m.refN += len(s.expected)
}

// closedLoopRun drives the target with its callers for the run's length
// and fills the host-time samples. check, when not nil, replaces the
// comparison with the warm-up answers (the noisy workload records instead).
func (s *served) closedLoopRun(ctx context.Context, cfg runConfig, m *measured, check func(iter, lo int, labels []int) (ok, bad int)) {
	n := len(s.inputs)
	batches := n / s.batch
	runtime.GC()
	segs := closedLoopSegments(s.callers, cfg.length(), loopSegments, nil, func(c, iter int) (int, int) {
		// Callers start a stride apart so they do not serve the same
		// batch at the same moment.
		lo := ((c*batches/s.callers + iter) % batches) * s.batch
		id := cfg.tr.begin("client.call", 0, iter+1, s.batch)
		labels, err := s.classify(ctx, s.inputs[lo:lo+s.batch])
		cfg.tr.end(id)
		if err != nil || len(labels) != s.batch {
			return 0, s.batch
		}
		if check != nil {
			return check(iter, lo, labels)
		}
		ok := 0
		for i, l := range labels {
			if l == s.expected[lo+i] {
				ok++
			}
		}
		return ok, s.batch - ok
	})
	m.addSegments(segs, 3)
	m.served = m.attempted - m.failed
}

// crossCheck recomputes a sample of the served answers serially, one
// input at a time, with SpikingNet.Outputs of the same deployment, and
// counts every disagreement as a failure.
func (s *served) crossCheck(m *measured) error {
	net, err := s.dep.NewNet(nil)
	if err != nil {
		return err
	}
	n := len(s.inputs)
	seen := make(map[int]bool)
	limit := int(m.served/crossCheckStride) + 1
	if limit > 64 {
		limit = 64
	}
	for k := 0; k < limit; k++ {
		i := (k * crossCheckStride) % n
		if seen[i] {
			continue
		}
		seen[i] = true
		out, err := net.Outputs(s.inputs[i], s.mode)
		if err != nil {
			return fmt.Errorf("serial cross-check: %w", err)
		}
		if got := argmax(out); got != s.expected[i] {
			m.failed++
			m.problemf("input %d: served label %d, serial SpikingNet.Outputs gives %d", i, s.expected[i], got)
		}
	}
	return nil
}
