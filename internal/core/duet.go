// Package core assembles DUET's pipeline — coarse-grained partitioning,
// compiler-aware profiling, greedy-correction scheduling, and heterogeneous
// execution — into the inference engine the paper presents (Fig. 6). If the
// scheduled co-execution does not beat the best single device, the engine
// falls back to single-device execution (§VI-E).
package core

import (
	"fmt"
	"strings"

	"duet/internal/compiler"
	"duet/internal/costmodel"
	"duet/internal/device"
	"duet/internal/graph"
	"duet/internal/obs"
	"duet/internal/partition"
	"duet/internal/profile"
	"duet/internal/runtime"
	"duet/internal/schedule"
	"duet/internal/tensor"
	"duet/internal/vclock"
	"duet/internal/verify"
)

// ProfileMode selects how per-subgraph costs are obtained.
type ProfileMode int

const (
	// ProfileMeasured micro-benchmarks every subgraph on every device —
	// the paper's §IV-B profiler, O(subgraphs × devices) benchmark runs.
	ProfileMeasured ProfileMode = iota
	// ProfilePredicted uses the learned cost model for every subgraph:
	// zero micro-benchmarks, instant cold start.
	ProfilePredicted
	// ProfileHybrid predicts everything and micro-benchmarks only the
	// critical-path-sensitive subgraphs (phase anchors + top-K costs), at
	// reduced repetitions.
	ProfileHybrid
)

// String names the mode the way profile.Source does.
func (m ProfileMode) String() string {
	switch m {
	case ProfilePredicted:
		return profile.ModePredicted
	case ProfileHybrid:
		return profile.ModeHybrid
	}
	return profile.ModeMeasured
}

// Config controls how a DUET engine is built.
type Config struct {
	// Seed drives every noise source; the same seed reproduces the same
	// latency samples. Seed 0 builds a noiseless engine.
	Seed int64
	// ProfileRuns is the micro-benchmark repetition count (paper: 500).
	ProfileRuns int
	// MeasureRuns is how many runs each correction-step latency measurement
	// averages.
	MeasureRuns int
	// Compiler selects the graph-level optimizations subgraphs are compiled
	// with. Defaults to the full pipeline.
	Compiler compiler.Options
	// FusionLevel overrides the fusion pass aggressiveness (off, legacy
	// dense-epilogue, unconstrained chains) without spelling out full
	// compiler.Options. FusionAuto (the zero value) leaves Compiler.Fusion
	// untouched.
	FusionLevel compiler.FusionLevel
	// DisableFallback keeps the scheduled placement even when a single
	// device measures faster (used by ablations).
	DisableFallback bool
	// DisableCorrection stops after the greedy placement (step 1+2 only),
	// used by ablations.
	DisableCorrection bool
	// Records, when non-nil, supplies previously persisted profiling
	// records (profile.SaveRecords/LoadRecords) instead of re-profiling —
	// profiling is an offline one-time cost (§IV-B). The record count must
	// match the partition's subgraph count.
	Records []profile.Record
	// DisableVerify skips the static verification passes that otherwise run
	// over every built engine's artifacts (graph, partition, profiles,
	// placement, kernel plans). Verification is on by default and a finding
	// fails the build; disabling is for experiments that deliberately build
	// corrupted artifacts.
	DisableVerify bool
	// Mode selects measured, predicted, or hybrid profiling. Predicted and
	// hybrid require CostModel. Ignored when Records are supplied.
	Mode ProfileMode
	// CostModel is the trained latency regressor (costmodel.Train /
	// costmodel.Load) used by predicted and hybrid modes.
	CostModel *costmodel.Model
	// HybridTopK widens hybrid mode's measured set beyond the critical
	// anchors (0 = ceil(subgraphs/4)).
	HybridTopK int
	// ProfileCache, when non-nil, memoizes measured whole-model profiles by
	// content hash so rebuilding an unchanged model skips micro-benchmarking
	// entirely (measured mode only).
	ProfileCache *profile.Cache
	// SearchCorrection replaces Step 3's greedy swap-correction with the
	// wide beam / simulated-annealing search over predicted costs
	// (schedule.SearchCorrect), re-validated against measured latencies.
	SearchCorrection bool
	// Search tunes the wide search; zero values take defaults, and the
	// annealer seed defaults to Seed.
	Search schedule.SearchOptions
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:        seed,
		ProfileRuns: 500,
		MeasureRuns: 3,
		Compiler:    compiler.DefaultOptions(),
	}
}

// Engine is a built DUET inference engine for one model.
type Engine struct {
	Graph     *graph.Graph
	Partition *partition.Partition
	// Runtime executes with seeded run-to-run noise (evaluation).
	Runtime *runtime.Engine
	// Search executes noiselessly (deterministic schedule search).
	Search *runtime.Engine
	// Profiles holds the per-subgraph records from the compiler-aware
	// profiler.
	Profiles []profile.Record
	// Scheduler is retained so callers can run baseline algorithms.
	Scheduler *schedule.Scheduler
	// Placement is the chosen subgraph→device mapping.
	Placement runtime.Placement
	// FellBack reports that single-device execution won and Placement is
	// uniform.
	FellBack bool
	// Options records the compiler options the engine was built with, so
	// layers above (the serving layer's batched-module compiler) can compile
	// sibling graphs through the identical optimization pipeline.
	Options compiler.Options
	// ProfileMode names how Profiles were obtained ("measured",
	// "predicted", "hybrid").
	ProfileMode string
	// ProfileStats accounts for the profile source's work — notably
	// Microbenchmarks, which predicted mode keeps at zero.
	ProfileStats profile.SourceStats
	// SearchTrail reports the wide Step-3 search when SearchCorrection was
	// enabled (nil otherwise).
	SearchTrail *schedule.SearchTrail
	// detail retains the cost-model inputs for verification and online
	// refinement (nil in measured mode).
	detail *profile.SourceDetail
}

// Build constructs the engine: validates and shape-infers the graph,
// partitions it, profiles every subgraph on both devices, runs
// greedy-correction scheduling, and applies the single-device fallback
// comparison.
func Build(g *graph.Graph, cfg Config) (*Engine, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := compiler.InferShapes(g); err != nil {
		return nil, err
	}
	if cfg.ProfileRuns <= 0 {
		cfg.ProfileRuns = 500
	}
	if cfg.MeasureRuns <= 0 {
		cfg.MeasureRuns = 1
	}
	zero := compiler.Options{}
	if cfg.Compiler == zero {
		cfg.Compiler = compiler.DefaultOptions()
	}
	if cfg.FusionLevel != compiler.FusionAuto {
		cfg.Compiler.Fusion = cfg.FusionLevel
	}

	part, err := partition.Build(g)
	if err != nil {
		return nil, err
	}
	noisy, err := runtime.New(part, device.NewPlatform(cfg.Seed), cfg.Compiler)
	if err != nil {
		return nil, err
	}
	// The search engine shares the evaluation engine's compiled modules and
	// tuned costs, timed on its own noiseless platform; the profile sources
	// reuse the modules too (per-device lowering still happens inside the
	// profiler, where it belongs). Each subgraph compiles once per build.
	search := noisy.WithPlatform(device.NewPlatform(0))

	var src profile.Source
	var detail *profile.SourceDetail
	var stats profile.SourceStats
	records := cfg.Records
	if records == nil {
		if src, err = cfg.source(noisy.Modules()); err != nil {
			return nil, err
		}
		records, err = src.Records(part)
		if err != nil {
			return nil, err
		}
		stats = src.Stats()
		detail = src.Detail()
	} else if len(records) != len(part.Subgraphs()) {
		return nil, fmt.Errorf("core: %d supplied profile records for %d subgraphs — re-profile after model changes", len(records), len(part.Subgraphs()))
	}

	sched, err := schedule.New(part, records, schedule.EngineMeasure(search, cfg.MeasureRuns))
	if err != nil {
		return nil, err
	}

	e := &Engine{
		Graph:        g,
		Partition:    part,
		Runtime:      noisy,
		Search:       search,
		Profiles:     records,
		Scheduler:    sched,
		Options:      cfg.Compiler,
		ProfileMode:  cfg.Mode.String(),
		ProfileStats: stats,
		detail:       detail,
	}

	switch {
	case cfg.DisableCorrection:
		e.Placement = sched.Greedy()
	case cfg.SearchCorrection:
		opt := cfg.Search
		if opt.Seed == 0 {
			opt.Seed = cfg.Seed
		}
		e.Placement, e.SearchTrail, err = sched.GreedySearch(opt)
		if err != nil {
			return nil, err
		}
	default:
		e.Placement, err = sched.GreedyCorrection()
		if err != nil {
			return nil, err
		}
	}

	if !cfg.DisableFallback {
		if err := e.applyFallback(); err != nil {
			return nil, err
		}
	}
	if !cfg.DisableVerify {
		if err := verify.AsError(e.Verify()); err != nil {
			return nil, fmt.Errorf("core: built engine failed static verification: %w", err)
		}
	}
	return e, nil
}

// source builds the profile source the configured mode asks for.
func (cfg Config) source(modules []*compiler.Module) (profile.Source, error) {
	prof := &profile.Profiler{
		Platform: device.NewPlatform(mix(cfg.Seed)),
		Options:  cfg.Compiler,
		Runs:     cfg.ProfileRuns,
	}
	switch cfg.Mode {
	case ProfilePredicted:
		if cfg.CostModel == nil {
			return nil, fmt.Errorf("core: predicted profile mode needs a cost model")
		}
		return &profile.PredictedSource{Model: cfg.CostModel, Options: cfg.Compiler, Modules: modules}, nil
	case ProfileHybrid:
		if cfg.CostModel == nil {
			return nil, fmt.Errorf("core: hybrid profile mode needs a cost model")
		}
		// A quarter of the repetitions on the measured subset: the set is
		// small and anchor-heavy, so per-subgraph statistical stability
		// matters less than for a full sweep, and benchmark-run savings
		// stay >= 4x however many subgraphs turn out critical.
		prof.Runs = (cfg.ProfileRuns + 3) / 4
		return &profile.HybridSource{Model: cfg.CostModel, Profiler: prof, Modules: modules, TopK: cfg.HybridTopK}, nil
	default:
		// Salt the cache key with everything that changes measured numbers:
		// the profiling noise stream and the repetition count.
		salt := uint64(mix(cfg.Seed))*1048583 + uint64(cfg.ProfileRuns)
		return &profile.MeasuredSource{Profiler: prof, Modules: modules, Cache: cfg.ProfileCache, Salt: salt}, nil
	}
}

// Verify runs the static verification layer over the built engine's
// artifacts — graph well-formedness, partition invariants, schedule order,
// sync-queue liveness, profile I/O accounting, placement legality, and
// per-module arena release safety — and returns the findings (nil when
// everything verifies). Engines built with a cost model additionally pass
// the cost-model sanity checks (strictly positive predictions, batch-row
// monotonicity, criticals measured in hybrid mode). Build calls this
// automatically unless Config.DisableVerify is set.
func (e *Engine) Verify() []verify.Finding {
	fs := verify.All(verify.Artifacts{
		Graph:     e.Graph,
		Partition: e.Partition,
		Placement: []device.Kind(e.Placement),
		Records:   e.Profiles,
		Modules:   e.Runtime.Modules(),
	})
	if e.detail != nil {
		fs = append(fs, verify.CheckCostModel(e.Partition, e.Profiles, e.detail, e.ProfileMode)...)
	}
	return fs
}

// RefineCostModel streams one run's measured per-subgraph busy-seconds
// (its Timeline compute spans) into the model's online refinement
// (costmodel.Observe) — closing the loop between the observability layer's
// measured reality and the predictor. It returns how many observations
// were applied. The model may be the one the engine was built with or a
// fresh artifact being recalibrated.
func (e *Engine) RefineCostModel(m *costmodel.Model, res *runtime.Result) int {
	if m == nil || res == nil {
		return 0
	}
	subs := e.Partition.Subgraphs()
	byLabel := make(map[string]int, len(subs))
	for i, sub := range subs {
		byLabel[sub.Graph.Name+" ["+sub.Summary()+"]"] = i
	}
	applied := 0
	for _, span := range res.Timeline {
		i, ok := byLabel[span.Label]
		if !ok {
			continue // transfer spans and other non-compute activity
		}
		var kind device.Kind
		switch {
		case strings.HasPrefix(span.Device, "cpu"):
			kind = device.CPU
		case strings.HasPrefix(span.Device, "gpu"):
			kind = device.GPU
		default:
			continue
		}
		busy := span.End - span.Start
		if busy <= 0 {
			continue
		}
		f := e.features(i)
		m.Observe(f, kind, busy)
		applied++
	}
	return applied
}

// features returns subgraph i's cost-model features, reusing the profile
// source's extraction when available.
func (e *Engine) features(i int) costmodel.Features {
	if e.detail != nil && i < len(e.detail.Features) {
		return e.detail.Features[i]
	}
	return costmodel.FromModule(e.Graph, e.Partition.Subgraphs()[i], e.Search.Module(i))
}

// mix derives the profiling seed so profile noise is independent of the
// evaluation noise stream but still reproducible; seed 0 stays noiseless.
func mix(seed int64) int64 {
	if seed == 0 {
		return 0
	}
	return seed*0x9e3779b9 + 1
}

// applyFallback replaces the scheduled placement with the best uniform one
// when co-execution does not measure faster (§VI-E).
func (e *Engine) applyFallback() error {
	n := e.Runtime.NumSubgraphs()
	measure := e.Scheduler.Measure
	duet, err := measure(e.Placement)
	if err != nil {
		return err
	}
	for _, kind := range []device.Kind{device.GPU, device.CPU} {
		uni := runtime.Uniform(n, kind)
		lat, err := measure(uni)
		if err != nil {
			return err
		}
		if lat < duet {
			duet = lat
			e.Placement = uni
			e.FellBack = true
		}
	}
	return nil
}

// Instrument attaches a metrics registry to the evaluation runtime: run
// counts, latency histograms, per-device busy seconds, fault-tolerance
// activity, and synchronization-queue depths are recorded into reg for
// every subsequent Infer/Measure call. Passing nil detaches. The search
// engine stays uninstrumented so schedule-search runs do not pollute
// serving metrics.
func (e *Engine) Instrument(reg *obs.Registry) { e.Runtime.Instrument(reg) }

// Registry returns the attached metrics registry (nil when uninstrumented).
func (e *Engine) Registry() *obs.Registry { return e.Runtime.Registry() }

// ScheduleAudit re-runs greedy-correction scheduling with the decision
// trail enabled and returns the audit: per-subgraph device choices with
// both profiled costs, the accepted swap sequence, and predicted vs
// measured critical path. The search engine is noiseless, so the audit
// reproduces the placement Build chose (before any single-device
// fallback).
func (e *Engine) ScheduleAudit() (*schedule.Audit, error) {
	_, audit, err := e.Scheduler.GreedyCorrectionAudit()
	return audit, err
}

// Infer runs one real inference (values materialised) under the chosen
// placement.
func (e *Engine) Infer(inputs map[string]*tensor.Tensor) (*runtime.Result, error) {
	return e.Runtime.Run(inputs, e.Placement, true)
}

// InferParallel runs one real inference with host-concurrent subgraph
// execution (one worker goroutine per device, §IV-D); outputs are identical
// to Infer's and the reported virtual latency uses the same timing model.
func (e *Engine) InferParallel(inputs map[string]*tensor.Tensor) (*runtime.Result, error) {
	return e.Runtime.RunParallel(inputs, e.Placement)
}

// InferWithPolicy runs one real inference under a fault-tolerance policy:
// injected faults are survived by retries, failover migration, and
// circuit-breaker degradation as the policy allows. Outputs remain
// bit-identical to Infer's (values are computed on the host after each
// subgraph's attempts succeed).
func (e *Engine) InferWithPolicy(inputs map[string]*tensor.Tensor, pol runtime.Policy) (*runtime.Result, error) {
	if inputs == nil {
		inputs = map[string]*tensor.Tensor{}
	}
	return e.Runtime.RunWithPolicy(inputs, e.Placement, pol)
}

// MeasureWithPolicy samples end-to-end latency for the chosen placement
// under a fault-tolerance policy (timing-only runs).
func (e *Engine) MeasureWithPolicy(pol runtime.Policy, runs int) ([]vclock.Seconds, error) {
	return e.Runtime.MeasureWithPolicy(e.Placement, pol, runs)
}

// Measure samples end-to-end latency for the chosen placement.
func (e *Engine) Measure(runs int) ([]vclock.Seconds, error) {
	return e.Runtime.MeasureLatency(e.Placement, runs)
}

// MeasureUniform samples latency with every subgraph on one device — the
// TVM-CPU / TVM-GPU comparison points.
func (e *Engine) MeasureUniform(kind device.Kind, runs int) ([]vclock.Seconds, error) {
	return e.Runtime.MeasureLatency(runtime.Uniform(e.Runtime.NumSubgraphs(), kind), runs)
}

// PlacementTable renders the profiled costs and final decision per subgraph
// — the rows of the paper's Table II.
func (e *Engine) PlacementTable() []PlacementRow {
	rows := make([]PlacementRow, len(e.Profiles))
	flat := 0
	for _, ph := range e.Partition.Phases {
		for range ph.Subgraphs {
			rec := e.Profiles[flat]
			rows[flat] = PlacementRow{
				Subgraph: e.Partition.Subgraphs()[flat].Graph.Name,
				Summary:  rec.Summary,
				Phase:    ph.Index,
				Kind:     ph.Kind,
				CPUTime:  rec.Time[device.CPU],
				GPUTime:  rec.Time[device.GPU],
				Decision: e.Placement[flat],
			}
			flat++
		}
	}
	return rows
}

// PlacementRow is one line of the placement-decision table.
type PlacementRow struct {
	Subgraph string
	Summary  string
	Phase    int
	Kind     partition.PhaseKind
	CPUTime  vclock.Seconds
	GPUTime  vclock.Seconds
	Decision device.Kind
}

// String renders the row.
func (r PlacementRow) String() string {
	return fmt.Sprintf("%-28s phase=%d(%s) cpu=%8.3fms gpu=%8.3fms → %s [%s]",
		r.Subgraph, r.Phase, r.Kind, r.CPUTime*1e3, r.GPUTime*1e3, r.Decision, r.Summary)
}
