package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"fpsa"
)

// compileDup and compileSeeds shape the LeNet design: duplication 4, an
// annealing portfolio of two.
const (
	compileDup   = 4
	compileSeeds = 2
	// zooDup is the duplication of the front-end pass over the whole zoo.
	zooDup = 16
)

// design is one placed-and-routed entry of a compile_zoo round.
type design struct {
	name string
	opts []fpsa.Option
}

func prDesigns() []design {
	return []design{
		{"LeNet", []fpsa.Option{fpsa.WithDuplication(compileDup), fpsa.WithPlacementSeeds(compileSeeds)}},
		{"CIFAR-VGG17", []fpsa.Option{fpsa.WithDuplication(1)}},
		{"MLP-500-100", []fpsa.Option{fpsa.WithChips(2), fpsa.WithChipCapacity(8)}},
	}
}

// compileSys is the compiler workload set up: the zoo loaded and the
// compiler warm from one small design's cold compile.
type compileSys struct {
	zoo map[string]fpsa.Model
}

func setupCompile(ctx context.Context) (*compileSys, error) {
	s := &compileSys{zoo: make(map[string]fpsa.Model)}
	for _, name := range fpsa.BenchmarkModels() {
		m, err := fpsa.LoadBenchmark(name)
		if err != nil {
			return nil, err
		}
		s.zoo[name] = m
	}
	d := prDesigns()[2]
	if _, err := s.placeAndRoute(ctx, d, fpsa.NewCompileCache(0), false); err != nil {
		return nil, fmt.Errorf("warm-up compile of %s: %w", d.name, err)
	}
	return s, nil
}

// compiled is what one compile produced: its facts as one line, every
// field deterministic, and the simulated-hardware clock's reading.
type compiled struct {
	line                string
	latencyUS, energyUJ float64
}

// placeAndRoute takes one design through Compile → PlaceAndRoute →
// Bitstream → PerformanceWithHops. wantCached says whether the cache must
// supply the artifacts.
func (s *compileSys) placeAndRoute(ctx context.Context, d design, cache *fpsa.CompileCache, wantCached bool) (compiled, error) {
	opts := append(append([]fpsa.Option(nil), d.opts...), fpsa.WithCache(cache), fpsa.WithSeed(modelSeed))
	dep, err := fpsa.Compile(ctx, s.zoo[d.name], opts...)
	if err != nil {
		return compiled{}, err
	}
	st, err := dep.PlaceAndRoute(ctx)
	if err != nil {
		return compiled{}, err
	}
	if !st.Converged {
		return compiled{}, fmt.Errorf("%s: routing did not converge", d.name)
	}
	if st.FromCache != wantCached {
		return compiled{}, fmt.Errorf("%s: artifacts from cache = %v, want %v", d.name, st.FromCache, wantCached)
	}
	bits, err := dep.Bitstream(ctx)
	if err != nil {
		return compiled{}, err
	}
	p, err := dep.PerformanceWithHops(int(math.Round(st.MeanHops)))
	if err != nil {
		return compiled{}, err
	}
	line := fmt.Sprintf("%s chips=%d side=%d iters=%d hops=%.6f/%d channels=%d moves=%d cost=%.6f cells=%d sim_us=%.9g sim_uj=%.9g",
		d.name, st.Chips, st.ChipSide, st.Iterations, st.MeanHops, st.MaxHops, st.ChannelsNeeded, st.PlacementMoves,
		st.WirelengthCost, bits.ProgrammedCells, p.LatencyUS, p.EnergyUJ)
	return compiled{line, p.LatencyUS, p.EnergyUJ}, nil
}

// frontEnd compiles one zoo model at zooDup without placing it and
// evaluates the performance model.
func (s *compileSys) frontEnd(ctx context.Context, name string) (compiled, error) {
	dep, err := fpsa.Compile(ctx, s.zoo[name], fpsa.WithDuplication(zooDup))
	if err != nil {
		return compiled{}, err
	}
	p, err := dep.Performance()
	if err != nil {
		return compiled{}, err
	}
	pes, smbs, clbs := dep.Blocks()
	line := fmt.Sprintf("%s@%d pes=%d smbs=%d clbs=%d sim_us=%.9g sim_uj=%.9g", name, zooDup, pes, smbs, clbs, p.LatencyUS, p.EnergyUJ)
	return compiled{line, p.LatencyUS, p.EnergyUJ}, nil
}

// stretch is how long a piece of work took by the wall clock and the
// host's speed as calibrated around it.
type stretch struct {
	seconds, speed float64
}

// join adds stretches up: the wall-clock total and the speed that makes
// seconds × speed the sum of the pieces' work at reference speed.
func join(pieces ...stretch) stretch {
	var total, work float64
	for _, p := range pieces {
		total += p.seconds
		work += p.seconds * p.speed
	}
	if total == 0 {
		return stretch{}
	}
	return stretch{total, work / total}
}

// roundResult is one compile_zoo round: its cold part, its warm pass and
// the whole of it.
type roundResult struct {
	cold, warm, total stretch
	// facts holds one line per compiled design, sorted, so the order the
	// seed put the designs in does not show.
	facts        []string
	hits, misses int64
	simLatencyUS []float64
	simEnergyUJ  []float64
	attempted    int64
	failed       int64
	problems     []string
}

// add records one cold or front-end compile.
func (r *roundResult) add(c compiled) {
	r.facts = append(r.facts, c.line)
	r.simLatencyUS = append(r.simLatencyUS, c.latencyUS)
	r.simEnergyUJ = append(r.simEnergyUJ, c.energyUJ)
}

// round runs the cold pass, the front-end pass over the zoo and the warm
// pass, against a fresh cache. A compile that fails, does not route or
// does not verify counts as failed and the round goes on.
func (s *compileSys) round(ctx context.Context, tr *tracer, rng *rand.Rand, n int) roundResult {
	var r roundResult
	cache := fpsa.NewCompileCache(0)
	designs := prDesigns()
	rng.Shuffle(len(designs), func(i, j int) { designs[i], designs[j] = designs[j], designs[i] })
	zoo := fpsa.BenchmarkModels()
	rng.Shuffle(len(zoo), func(i, j int) { zoo[i], zoo[j] = zoo[j], zoo[i] })
	fail := func(err error) {
		r.failed++
		r.problems = append(r.problems, err.Error())
	}
	// The host's speed is calibrated between the pieces of a round — each
	// cold design, the zoo pass, the warm pass — because a round is long
	// enough for the speed to change under it.
	var sp speeds
	var took []float64
	timed := func(f func()) {
		sp.mark()
		t0 := time.Now()
		f()
		took = append(took, time.Since(t0).Seconds())
	}
	for _, d := range designs {
		timed(func() {
			r.attempted++
			id := tr.begin("client.call", 0, n, 1)
			c, err := s.placeAndRoute(ctx, d, cache, false)
			tr.end(id)
			if err != nil {
				fail(err)
				return
			}
			r.add(c)
		})
	}
	timed(func() {
		for _, name := range zoo {
			r.attempted++
			id := tr.begin("client.call", 0, n, 1)
			c, err := s.frontEnd(ctx, name)
			tr.end(id)
			if err != nil {
				fail(err)
				continue
			}
			r.add(c)
		}
	})
	timed(func() {
		for _, d := range designs {
			r.attempted++
			id := tr.begin("client.call", 0, n, 1)
			c, err := s.placeAndRoute(ctx, d, cache, true)
			tr.end(id)
			if err != nil {
				fail(err)
				continue
			}
			r.facts = append(r.facts, "warm "+c.line)
		}
	})
	sp.mark()
	pieces := make([]stretch, len(took))
	for i, speed := range sp.around() {
		pieces[i] = stretch{took[i], speed}
	}
	r.cold = join(pieces[:len(designs)]...)
	r.warm = pieces[len(pieces)-1]
	r.total = join(pieces...)
	r.hits, r.misses = cache.Counters()
	sort.Strings(r.facts)
	return r
}

func factsDigest(facts []string) string {
	h := sha256.New()
	for _, f := range facts {
		h.Write([]byte(f))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func runCompile(ctx context.Context, cfg runConfig, bf *benchmarkFile) (*result, error) {
	s, setupS, err := repeatSetup(cfg.setupCount(wlCompile), func() (*compileSys, error) { return setupCompile(ctx) }, func(*compileSys) {})
	if err != nil {
		return nil, err
	}
	m := &measured{setupS: setupS, counts: map[string]int64{}, extra: map[string]*hostSamples{"compile_s": {}, "warm_compile_ms": {}}}
	rng := rand.New(rand.NewSource(cfg.seed))
	runtime.GC()
	t0 := time.Now()
	// Whole rounds until the run's length has passed.
	for n := 1; n == 1 || time.Since(t0) < cfg.length(); n++ {
		r := s.round(ctx, cfg.tr, rng, n)
		m.attempted += r.attempted
		m.failed += r.failed
		m.problems = append(m.problems, r.problems...)
		m.throughput.addRate(float64(r.attempted-r.failed)/r.total.seconds, r.total.speed)
		m.p50.addTime(r.total.seconds*1e3, r.total.speed)
		m.extra["compile_s"].addTime(r.cold.seconds, r.cold.speed)
		m.extra["warm_compile_ms"].addTime(r.warm.seconds*1e3, r.warm.speed)
		digest := factsDigest(r.facts)
		if n == 1 {
			m.digest = digest
			m.counts["cache_hits"], m.counts["cache_misses"] = r.hits, r.misses
			m.simLatencyUS, m.simEnergyUJ = r.simLatencyUS, r.simEnergyUJ
		} else if digest != m.digest {
			m.failed++
			m.problemf("round %d compiled to different results than round 1 (digest %s)", n, digest)
		}
	}
	return buildResult(wlCompile, cfg, bf, m), nil
}
