package main

import (
	"fmt"
	goruntime "runtime"
	"strings"
	"time"

	"duet/internal/compiler"
	"duet/internal/core"
	"duet/internal/device"
	"duet/internal/graph"
	"duet/internal/partition"
	"duet/internal/profile"
	"duet/internal/runtime"
	"duet/internal/schedule"
	"duet/internal/verify"
)

// buildStages are core.Build's stages in its order, each timed around one
// public call (compiler.compile_ms sums one compiler.Compile per subgraph).
var buildStages = []string{
	"graph.validate_ms", "compiler.infer_shapes_ms", "partition.build_ms",
	"runtime.new_ms", "compiler.compile_ms", "profile.records_ms",
	"schedule.correct_ms", "verify.all_ms",
}

// buildSample is one model's build, attributed from outside.
type buildSample struct {
	stage           map[string]time.Duration
	build           time.Duration // the real core.Build
	staged          time.Duration // the traced replay of its stages
	measureCalls    int
	microbenchmarks int
	subgraphs       int
	launches        int
	gflop           float64
}

// attributed sums the stages that partition core.Build's time.
// compiler.compile_ms re-times the compiles runtime.New performs, so it is
// shown beside runtime.new_ms rather than added to it. What core.Build does
// beyond one pass of the stages (today: its second runtime.New and the
// single-device fallback measurements) stays unattributed.
func (s buildSample) attributed() time.Duration {
	var sum time.Duration
	for name, d := range s.stage {
		if name != "compiler.compile_ms" {
			sum += d
		}
	}
	return sum
}

func (s *buildSample) add(o buildSample) {
	if s.stage == nil {
		s.stage = map[string]time.Duration{}
	}
	for k, v := range o.stage {
		s.stage[k] += v
	}
	s.build += o.build
	s.staged += o.staged
	s.measureCalls += o.measureCalls
	s.microbenchmarks += o.microbenchmarks
	s.subgraphs += o.subgraphs
	s.launches += o.launches
	s.gflop += o.gflop
}

// moduleCounts sums the dispatch count and FLOPs of an engine's modules.
func moduleCounts(e *runtime.Engine) (launches int, gflop float64) {
	for i := 0; i < e.NumSubgraphs(); i++ {
		m := e.Module(i)
		launches += m.LaunchCount()
		gflop += m.TotalCost().FLOPs / 1e9
	}
	return launches, gflop
}

// profileSeed mirrors core's derivation of the profiling noise stream from
// the build seed, so the staged profile reproduces core.Build's.
func profileSeed(seed int64) int64 {
	if seed == 0 {
		return 0
	}
	return seed*0x9e3779b9 + 1
}

// traceBuild times one real core.Build of g, then replays core.Build's
// stages on the same graph under spans.
func traceBuild(g *graph.Graph, cfg core.Config, tr *tracer, op int) (buildSample, error) {
	s := buildSample{stage: map[string]time.Duration{}}
	root := tr.begin("core.build", 0, op, 0)
	e, err := core.Build(g, cfg)
	s.build = tr.end(root, map[string]any{"model": g.Name})
	if err != nil {
		return s, fmt.Errorf("core.Build(%s): %w", g.Name, err)
	}
	s.launches, s.gflop = moduleCounts(e.Runtime)

	id := tr.begin("core.staged", 0, op, 0)
	err = stageBuild(g, cfg, tr, id, op, &s)
	s.staged = tr.end(id, map[string]any{"model": g.Name})
	return s, err
}

// stageBuild replays core.Build's stages on g one public call at a time,
// each under its own span of tr below parent (tr may be nil), adding their
// times and counts to s.
func stageBuild(g *graph.Graph, cfg core.Config, tr *tracer, parent, op int, s *buildSample) error {
	step := func(metric string, f func() error) error {
		name := strings.TrimSuffix(metric, "_ms")
		id := tr.begin(name, parent, op, 0)
		err := f()
		s.stage[metric] += tr.end(id, nil)
		if err != nil {
			return fmt.Errorf("%s (%s): %w", name, g.Name, err)
		}
		return nil
	}
	opt := cfg.Compiler
	var (
		part    *partition.Partition
		search  *runtime.Engine
		records []profile.Record
		place   runtime.Placement
	)
	err := step("graph.validate_ms", g.Validate)
	if err == nil {
		err = step("compiler.infer_shapes_ms", func() error { return compiler.InferShapes(g) })
	}
	if err == nil {
		err = step("partition.build_ms", func() (err error) { part, err = partition.Build(g); return err })
	}
	if err == nil {
		err = step("runtime.new_ms", func() (err error) {
			search, err = runtime.New(part, device.NewPlatform(0), opt)
			return err
		})
	}
	if err == nil {
		s.subgraphs = len(part.Subgraphs())
		for _, sub := range part.Subgraphs() {
			if err = step("compiler.compile_ms", func() error { _, err := compiler.Compile(sub.Graph, opt); return err }); err != nil {
				break
			}
		}
	}
	modules := make([]*compiler.Module, s.subgraphs)
	if err == nil {
		for i := range modules {
			modules[i] = search.Module(i)
		}
		src := &profile.MeasuredSource{
			Profiler: &profile.Profiler{Platform: device.NewPlatform(profileSeed(cfg.Seed)), Options: opt, Runs: cfg.ProfileRuns},
			Modules:  modules,
		}
		err = step("profile.records_ms", func() (err error) { records, err = src.Records(part); return err })
		s.microbenchmarks = src.Stats().Microbenchmarks
	}
	if err == nil {
		err = step("schedule.correct_ms", func() error {
			sched, err := schedule.New(part, records, countingMeasure(schedule.EngineMeasure(search, cfg.MeasureRuns), &s.measureCalls))
			if err == nil {
				place, err = sched.GreedyCorrection()
			}
			return err
		})
	}
	if err == nil {
		err = step("verify.all_ms", func() error {
			return verify.AsError(verify.All(verify.Artifacts{
				Graph: g, Partition: part, Placement: []device.Kind(place), Records: records, Modules: modules,
			}))
		})
	}
	return err
}

// recordBuild reports the medians of per-op build samples.
func recordBuild(r *report, samples []buildSample) {
	col := func(f func(buildSample) float64) float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return median(xs)
	}
	for _, name := range buildStages {
		r.set(name, "ms", col(func(s buildSample) float64 { return ms(s.stage[name]) }))
	}
	r.set("core.build_ms", "ms", col(func(s buildSample) float64 { return ms(s.build) }))
	r.set("core.unattributed_ms", "ms", col(func(s buildSample) float64 { return ms(s.build - s.attributed()) }))
	r.set("schedule.measure_calls", "count", col(func(s buildSample) float64 { return float64(s.measureCalls) }))
	r.set("profile.microbenchmarks", "count", col(func(s buildSample) float64 { return float64(s.microbenchmarks) }))
	r.set("partition.subgraphs", "count", col(func(s buildSample) float64 { return float64(s.subgraphs) }))
	r.set("compiler.launches_per_op", "count", col(func(s buildSample) float64 { return float64(s.launches) }))
	r.set("compiler.gflop_per_op", "GFLOP", col(func(s buildSample) float64 { return s.gflop }))
}

// zooLimit is zoo-build's latency limit for goodput: a seven-model build
// pass slower than this counts as missing it.
const zooLimit = 250 * time.Millisecond

// runZoo is the zoo-build workload: one op builds each of the seven zoo
// models once with core.DefaultConfig(seed).
func runZoo(o options, r *report, tr *tracer) error {
	zoo := zooModels(o.small)
	cfg := core.DefaultConfig(o.seed)
	var graphs []*graph.Graph
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		graphs = nil
		goruntime.GC()
		t0 := time.Now()
		for _, m := range zoo {
			g, err := m.graph()
			if err != nil {
				return fmt.Errorf("building %s graph: %w", m.name, err)
			}
			graphs = append(graphs, g)
		}
		if _, err := buildPass(graphs, cfg); err != nil {
			return fmt.Errorf("warm-up build: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", "s", median(setups))

	var want string
	check := func(i int, engines []*core.Engine) error {
		got, err := signature(engines)
		if err == nil && i == 0 {
			want = got
		} else if err == nil && got != want {
			err = fmt.Errorf("op %d built %s, op 0 built %s", i, got, want)
		}
		return err
	}
	if tr != nil {
		return traceZoo(o, r, tr, graphs, cfg, check)
	}
	var lats []float64
	good := 0
	if err := settleMemory(); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	loop := startLoop()
	for i := 0; loop.more(i, o.seconds); i++ {
		t := time.Now()
		engines, err := buildPass(graphs, cfg)
		lat := time.Since(t)
		if err == nil {
			err = check(i, engines)
		}
		r.op(err)
		lats = append(lats, ms(lat))
		if err == nil && lat <= zooLimit {
			good++
		}
	}
	return loop.finish(r, lats, good)
}

// buildPass is one zoo-build op.
func buildPass(graphs []*graph.Graph, cfg core.Config) ([]*core.Engine, error) {
	engines := make([]*core.Engine, len(graphs))
	for i, g := range graphs {
		e, err := core.Build(g, cfg)
		if err != nil {
			return nil, fmt.Errorf("core.Build(%s): %w", g.Name, err)
		}
		engines[i] = e
	}
	return engines, nil
}

// signature is what every zoo-build op must reproduce: each model's
// placement and modelled latency (one noiseless timing pass).
func signature(engines []*core.Engine) (string, error) {
	var b strings.Builder
	for _, e := range engines {
		res, err := e.Search.Run(nil, e.Placement, false)
		if err != nil {
			return "", fmt.Errorf("timing %s: %w", e.Graph.Name, err)
		}
		fmt.Fprintf(&b, "%s=%s@%v;", e.Graph.Name, e.Placement, float64(res.Latency))
	}
	return b.String(), nil
}

// traceZoo runs untraced build passes as the ops; after each, it times
// every model's core.Build and replays its stages twice, once under spans
// and once untraced, in alternating order. The untraced replay is the
// baseline for trace.overhead_frac, which therefore includes what the
// spans cost.
func traceZoo(o options, r *report, tr *tracer, graphs []*graph.Graph, cfg core.Config, check func(int, []*core.Engine) error) error {
	var plain, traced []float64
	var samples []buildSample
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < o.seconds; i++ {
		engines, err := buildPass(graphs, cfg)
		if err == nil {
			err = check(i, engines)
		}
		r.op(err)

		for k := 0; k < 2; k++ {
			if (i+k)%2 == 0 {
				var op buildSample
				for _, g := range graphs {
					s, err := traceBuild(g, cfg, tr, i)
					if err != nil {
						return err
					}
					op.add(s)
				}
				samples = append(samples, op)
				traced = append(traced, ms(op.staged))
				continue
			}
			t := time.Now()
			for _, g := range graphs {
				if err := stageBuild(g, cfg, nil, 0, i, &buildSample{stage: map[string]time.Duration{}}); err != nil {
					return err
				}
			}
			plain = append(plain, ms(time.Since(t)))
		}
	}
	recordBuild(r, samples)
	cover := make([]float64, len(samples))
	for i, s := range samples {
		cover[i] = float64(s.attributed()) / float64(s.build)
	}
	r.set("trace.coverage", "ratio", median(cover))
	r.set("trace.overhead_frac", "ratio", median(traced)/median(plain)-1)
	return nil
}
