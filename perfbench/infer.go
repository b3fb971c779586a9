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
	"duet/internal/runtime"
	"duet/internal/tensor"
)

// inputPool is how many distinct seeded input sets an inference workload
// cycles through: op i runs on inputs seed+(i mod inputPool), each checked
// against a reference computed once in set-up.
const inputPool = 3

// inferWorkload is a closed-loop, one-client inference workload.
type inferWorkload struct {
	model    model
	parallel bool          // InferParallel (worker per device) instead of Infer
	limit    time.Duration // latency limit for goodput
}

func (w inferWorkload) infer(e *core.Engine, in map[string]*tensor.Tensor) (*runtime.Result, error) {
	if w.parallel {
		return e.InferParallel(in)
	}
	return e.Infer(in)
}

// runInfer sets up the engine and its references, then runs the measured
// or the traced loop.
func runInfer(o options, w inferWorkload, r *report, tr *tracer) error {
	pool := make([]map[string]*tensor.Tensor, inputPool)
	for i := range pool {
		pool[i] = w.model.inputs(o.seed + int64(i))
	}
	var e *core.Engine
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		e = nil
		goruntime.GC()
		t0 := time.Now()
		g, err := w.model.graph()
		if err != nil {
			return fmt.Errorf("building %s graph: %w", w.model.name, err)
		}
		if e, err = core.Build(g, core.DefaultConfig(systemSeed)); err != nil {
			return fmt.Errorf("core.Build(%s): %w", w.model.name, err)
		}
		if _, err := w.infer(e, pool[0]); err != nil {
			return fmt.Errorf("warm-up op: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", "s", median(setups))

	ref, err := referenceEngine(e.Partition, e.Options)
	if err != nil {
		return fmt.Errorf("compiling reference: %w", err)
	}
	refs := make([][]*tensor.Tensor, len(pool))
	for i, in := range pool {
		if refs[i], err = referenceOutputs(ref, in); err != nil {
			return fmt.Errorf("reference outputs: %w", err)
		}
	}
	if tr != nil {
		return traceInfer(o, w, r, tr, e, pool, refs)
	}

	if err := settleMemory(); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	var lats, virt []float64
	good := 0
	loop := startLoop()
	for i := 0; loop.more(i, o.seconds); i++ {
		t := time.Now()
		res, err := w.infer(e, pool[i%len(pool)])
		lat := time.Since(t)
		if err == nil {
			err = sameBits(res.Outputs, refs[i%len(pool)])
		}
		r.op(err)
		lats = append(lats, ms(lat))
		if err == nil {
			virt = append(virt, float64(res.Latency)*1e3)
			if lat <= w.limit {
				good++
			}
		}
	}
	if err := loop.finish(r, lats, good); err != nil {
		return err
	}
	if len(virt) > 0 {
		r.set("virtual_p50_ms", "ms", median(virt))
	}
	return nil
}

// opTrace is one traced op's attribution.
type opTrace struct {
	wall, timing, exec, crit time.Duration
	execOn                   [2]time.Duration // host execute time by placed device
	busyOn                   [2]float64       // modelled busy seconds by device
	transfers                int
	transferBytes            int
}

// traceInfer times each op under one span, then replays the op's public
// calls twice, once under spans and once untraced, in alternating order.
// The traced replay attributes the op's wall time; what it cannot explain
// is runtime.unattributed_ms. The untraced replay is the baseline for
// trace.overhead_frac, which therefore includes what the spans cost.
func traceInfer(o options, w inferWorkload, r *report, tr *tracer, e *core.Engine, pool []map[string]*tensor.Tensor, refs [][]*tensor.Tensor) error {
	ar := e.Runtime.Arena()
	arena0, pack0 := ar.Stats(), tensor.PackCacheSnapshot()
	var plain, traced []float64
	var ops []opTrace
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < o.seconds; i++ {
		in, want := pool[i%len(pool)], refs[i%len(pool)]
		id := tr.begin("op", 0, i, 0)
		res, err := w.infer(e, in)
		wall := tr.end(id, map[string]any{"model": w.model.name})
		if err == nil {
			err = sameBits(res.Outputs, want)
		}
		r.op(err)

		var ot opTrace
		for k := 0; k < 2; k++ {
			if (i+k)%2 == 0 {
				id := tr.begin("runtime.replay", 0, i, 0)
				ot, err = replay(tr, id, i, e, w.parallel, in, want)
				traced = append(traced, ms(tr.end(id, nil)))
			} else {
				t := time.Now()
				_, err = replay(nil, 0, i, e, w.parallel, in, want)
				plain = append(plain, ms(time.Since(t)))
			}
			if err != nil {
				return err
			}
		}
		ot.wall = wall
		ops = append(ops, ot)
	}
	arena1, pack1 := ar.Stats(), tensor.PackCacheSnapshot()

	col := func(f func(opTrace) float64) float64 {
		xs := make([]float64, len(ops))
		for i, ot := range ops {
			xs[i] = f(ot)
		}
		return median(xs)
	}
	r.set("runtime.timing_pass_ms", "ms", col(func(t opTrace) float64 { return ms(t.timing) }))
	r.set("compiler.execute_ms", "ms", col(func(t opTrace) float64 { return ms(t.exec) }))
	r.set("compiler.execute_cpu_ms", "ms", col(func(t opTrace) float64 { return ms(t.execOn[device.CPU]) }))
	r.set("compiler.execute_gpu_ms", "ms", col(func(t opTrace) float64 { return ms(t.execOn[device.GPU]) }))
	r.set("runtime.unattributed_ms", "ms", col(func(t opTrace) float64 { return ms(t.wall - t.timing - t.crit) }))
	r.set("runtime.overlap_ratio", "ratio", col(func(t opTrace) float64 { return float64(t.exec) / float64(t.wall) }))
	for _, k := range []device.Kind{device.CPU, device.GPU} {
		if ops[0].busyOn[k] > 0 {
			r.set("runtime.wall_over_virtual."+strings.ToLower(k.String()), "ratio",
				col(func(t opTrace) float64 { return t.execOn[k].Seconds() / t.busyOn[k] }))
		}
	}
	r.set("runtime.transfers_per_op", "count", col(func(t opTrace) float64 { return float64(t.transfers) }))
	r.set("runtime.transfer_mb_per_op", "MB", col(func(t opTrace) float64 { return float64(t.transferBytes) / (1 << 20) }))
	r.set("tensor.arena_hit_ratio", "ratio", ratio(arena1.Hits-arena0.Hits, arena1.Misses-arena0.Misses))
	r.set("tensor.packcache_hit_ratio", "ratio", ratio(pack1.Hits-pack0.Hits, pack1.Misses-pack0.Misses))
	r.set("trace.coverage", "ratio", col(func(t opTrace) float64 { return float64(t.timing+t.crit) / float64(t.wall) }))
	r.set("trace.overhead_frac", "ratio", median(traced)/median(plain)-1)

	modules := make([]*compiler.Module, e.Runtime.NumSubgraphs())
	for j := range modules {
		modules[j] = e.Runtime.Module(j)
	}
	if err := probeKernels(r, tr, modules, r.metrics["compiler.execute_ms"].Value); err != nil {
		return err
	}
	return traceModelBuilds(r, tr, w.model)
}

// replay runs op's public calls once, each under a span of tr below
// parent (tr may be nil): the timing pass (Runtime.Run without values),
// then every subgraph's Module.ExecuteArena on the engine's arena, in
// partition order. The replay's outputs must equal want.
func replay(tr *tracer, parent, op int, e *core.Engine, parallel bool, in map[string]*tensor.Tensor, want []*tensor.Tensor) (opTrace, error) {
	var ot opTrace
	eng, place := e.Runtime, e.Placement
	subs := eng.Subgraphs()
	ar := eng.Arena()
	releaseAr := ar
	if parallel {
		releaseAr = nil // RunParallel keeps cross-subgraph values until the end
	}
	id := tr.begin("runtime.timing_pass", parent, op, 0)
	timing, err := eng.Run(nil, place, false)
	ot.timing = tr.end(id, nil)
	if err != nil {
		return ot, fmt.Errorf("timing pass: %w", err)
	}
	durs := make([]time.Duration, len(subs))
	outs, err := execute(eng, in, func(j int, sin map[string]*tensor.Tensor) ([]*tensor.Tensor, error) {
		id := tr.begin("compiler.execute", parent, op, 0)
		outs, err := eng.Module(j).ExecuteArena(sin, ar)
		durs[j] = tr.end(id, map[string]any{"subgraph": subs[j].Graph.Name, "device": place[j].String()})
		return outs, err
	}, releaseAr)
	if err == nil {
		err = sameBits(outs, want)
	}
	if err != nil {
		return ot, fmt.Errorf("replay: %w", err)
	}
	for j, d := range durs {
		ot.exec += d
		ot.execOn[place[j]] += d
	}
	ot.crit = ot.exec
	if parallel {
		ot.crit = criticalPath(subs, place, durs)
	}
	return ot, timelineStats(&ot, timing, e.Graph)
}

// traceModelBuilds attributes the workload model's own core.Build, which
// set-up pays once per engine: two builds from fresh graphs, medians
// reported.
func traceModelBuilds(r *report, tr *tracer, m model) error {
	var samples []buildSample
	for rep := 0; rep < 2; rep++ {
		g, err := m.graph()
		if err != nil {
			return err
		}
		s, err := traceBuild(g, core.DefaultConfig(systemSeed), tr, -1)
		if err != nil {
			return err
		}
		samples = append(samples, s)
	}
	recordBuild(r, samples)
	return nil
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// criticalPath is the host makespan of the placement given each
// subgraph's measured execute time: each device runs its subgraphs in
// partition order, each subgraph after its producers, as the timing model
// schedules them.
func criticalPath(subs []*graph.Subgraph, place runtime.Placement, d []time.Duration) time.Duration {
	producer := make(map[graph.NodeID]int)
	for j, s := range subs {
		for _, o := range s.Outputs {
			producer[o] = j
		}
	}
	finish := make([]time.Duration, len(subs))
	var free [2]time.Duration
	var end time.Duration
	for j, s := range subs {
		start := free[place[j]]
		for _, pid := range s.BoundaryInputs {
			if p, ok := producer[pid]; ok && finish[p] > start {
				start = finish[p]
			}
		}
		finish[j] = start + d[j]
		free[place[j]] = finish[j]
		end = max(end, finish[j])
	}
	return end
}

// timelineStats reads the modelled per-device busy time and the
// transfers off a timing pass. Transfer spans are labelled
// "xfer:<from>→<to>:<node>"; their bytes are the node's tensor size.
func timelineStats(ot *opTrace, res *runtime.Result, g *graph.Graph) error {
	for _, s := range res.Timeline {
		if rest, ok := strings.CutPrefix(s.Label, "xfer:"); ok {
			_, name, _ := strings.Cut(rest, ":")
			n := g.NodeByName(name)
			if n == nil {
				return fmt.Errorf("transfer of unknown node %q", name)
			}
			ot.transfers++
			ot.transferBytes += g.DataSize(n.ID)
			continue
		}
		busy := float64(s.End - s.Start)
		switch {
		case strings.HasPrefix(s.Device, "cpu"):
			ot.busyOn[device.CPU] += busy
		case strings.HasPrefix(s.Device, "gpu"):
			ot.busyOn[device.GPU] += busy
		}
	}
	return nil
}
