// Package runtime is DUET's heterogeneous execution engine (§IV-D). One
// worker per device consumes subgraphs from its synchronization queue,
// executes their compiled kernels, and triggers dependents; values crossing
// devices pay the interconnect cost. Time advances on the virtual clock of
// the device models while tensor values are (optionally) computed for real,
// so co-executed results can be checked bit-for-bit against single-device
// execution.
package runtime

import (
	"fmt"

	"duet/internal/compiler"
	"duet/internal/device"
	"duet/internal/graph"
	"duet/internal/hb"
	"duet/internal/ops"
	"duet/internal/partition"
	"duet/internal/tensor"
	"duet/internal/vclock"
	"duet/internal/verify"
)

// syncQueueOverhead models one push+pop through the shared-memory
// synchronization queue between the scheduler and a device worker.
const syncQueueOverhead vclock.Seconds = 2e-6

// Placement maps each flat subgraph index (partition.Subgraphs() order) to
// the device kind that executes it.
type Placement []device.Kind

// Clone returns a copy of the placement.
func (p Placement) Clone() Placement {
	return append(Placement(nil), p...)
}

// String renders the placement compactly, e.g. "CGGC". Unknown device kinds
// render as '?' so corrupted placements are visible in logs instead of
// silently reading as GPU.
func (p Placement) String() string {
	b := make([]byte, len(p))
	for i, k := range p {
		switch k {
		case device.CPU:
			b[i] = 'C'
		case device.GPU:
			b[i] = 'G'
		default:
			b[i] = '?'
		}
	}
	return string(b)
}

// validatePlacement delegates to the static verification layer's placement
// pass, so every engine entry point fails a corrupted placement with a typed
// *verify.PlacementError naming the subgraph, phase, and offending device —
// instead of an index panic deep in the engine.
func (e *Engine) validatePlacement(place Placement) error {
	if e.Partition == nil {
		return verify.CheckPlacementN([]device.Kind(place), len(e.subgraphs))
	}
	return verify.CheckPlacement([]device.Kind(place), e.Partition)
}

// Uniform returns a placement assigning every one of n subgraphs to kind.
func Uniform(n int, kind device.Kind) Placement {
	p := make(Placement, n)
	for i := range p {
		p[i] = kind
	}
	return p
}

// Span records one executed subgraph or transfer on the timeline.
type Span struct {
	Label  string
	Device string
	Start  vclock.Seconds
	End    vclock.Seconds
}

// Result is the outcome of one engine run.
type Result struct {
	// Outputs holds the declared graph outputs (nil when values were not
	// materialised).
	Outputs []*tensor.Tensor
	// Latency is the virtual end-to-end time of the run.
	Latency vclock.Seconds
	// Timeline lists executed subgraphs and transfers in start order.
	Timeline []Span
	// Faults summarises fault-tolerance activity (non-nil only for
	// RunWithPolicy runs).
	Faults *FaultReport
}

// Engine executes a partitioned model on the coupled CPU-GPU platform.
type Engine struct {
	Parent    *graph.Graph
	Partition *partition.Partition
	Platform  *device.Platform

	subgraphs []*graph.Subgraph
	modules   []*compiler.Module
	// tuned holds per-subgraph, per-device-kind kernel costs after
	// low-level schedule selection (the target-dependent back-end step).
	tuned [][2][]ops.Cost
	// plan is the dataflow every timing walk runs over.
	plan *Plan
	// m holds the resolved observability instruments (all nil until
	// Instrument attaches a registry; recording through nil is a no-op).
	m engineMetrics
	// arena recycles activation buffers across value-carrying runs. Created
	// by New; SetArena(nil) reverts to plain allocation (the pre-arena
	// baseline, useful for allocation A/B measurements).
	arena *tensor.Arena
}

// New compiles every subgraph of the partition under opt and returns an
// engine ready to execute placements.
func New(p *partition.Partition, plat *device.Platform, opt compiler.Options) (*Engine, error) {
	e := &Engine{Parent: p.Parent, Partition: p, Platform: plat, subgraphs: p.Subgraphs(), arena: tensor.NewArena()}
	plan, err := NewPlan(p.Parent, e.subgraphs)
	if err != nil {
		return nil, err
	}
	e.plan = plan
	for _, sub := range e.subgraphs {
		m, err := compiler.Compile(sub.Graph, opt)
		if err != nil {
			return nil, fmt.Errorf("runtime: compiling subgraph %s: %w", sub.Graph.Name, err)
		}
		e.modules = append(e.modules, m)
		e.tuned = append(e.tuned, [2][]ops.Cost{
			device.CPU: compiler.TunedCosts(m, plat.CPU),
			device.GPU: compiler.TunedCosts(m, plat.GPU),
		})
	}
	return e, nil
}

// WithPlatform returns an engine that times on plat but shares e's
// subgraphs, compiled modules, tuned kernel costs and dataflow plan, with a
// fresh arena and no metrics attached. Tuning reads only the devices'
// noiseless KernelTime, so for any plat built by device.NewPlatform — seeds
// differ only in noise — the result equals New on plat without compiling
// again.
func (e *Engine) WithPlatform(plat *device.Platform) *Engine {
	return &Engine{
		Parent: e.Parent, Partition: e.Partition, Platform: plat,
		subgraphs: e.subgraphs, modules: e.modules, tuned: e.tuned, plan: e.plan,
		arena: tensor.NewArena(),
	}
}

// Plan returns the dataflow plan timing walks run over.
func (e *Engine) Plan() *Plan { return e.plan }

// KernelCosts returns subgraph i's kernel costs as lowered for the given
// device kind.
func (e *Engine) KernelCosts(i int, kind device.Kind) []ops.Cost {
	return e.tuned[i][kind]
}

// NumSubgraphs returns the number of schedulable subgraphs.
func (e *Engine) NumSubgraphs() int { return len(e.subgraphs) }

// Subgraphs exposes the flat subgraph list (partition order).
func (e *Engine) Subgraphs() []*graph.Subgraph { return e.subgraphs }

// Module returns the compiled module of subgraph i.
func (e *Engine) Module(i int) *compiler.Module { return e.modules[i] }

// Modules returns every subgraph's compiled module in partition order. The
// slice is the engine's own; callers must not modify it.
func (e *Engine) Modules() []*compiler.Module { return e.modules }

// SetArena replaces the engine's activation arena. Pass nil to disable
// buffer recycling and execute with plain allocation.
func (e *Engine) SetArena(ar *tensor.Arena) { e.arena = ar }

// Arena returns the engine's activation arena (nil when disabled).
func (e *Engine) Arena() *tensor.Arena { return e.arena }

// Run executes the model under the given placement. inputs are keyed by the
// parent graph's input names; pass withValues=false for timing-only runs
// (inputs may then be nil).
func (e *Engine) Run(inputs map[string]*tensor.Tensor, place Placement, withValues bool) (*Result, error) {
	res, err := e.run(inputs, place, withValues)
	if err != nil {
		e.m.runErrors.Inc()
		return res, err
	}
	e.m.runs.Inc()
	e.m.latency.Observe(res.Latency)
	e.m.recordMemory(e.arena)
	return res, nil
}

func (e *Engine) run(inputs map[string]*tensor.Tensor, place Placement, withValues bool) (*Result, error) {
	if err := e.validatePlacement(place); err != nil {
		return nil, err
	}
	if !withValues {
		return e.time(place), nil
	}
	values, err := e.bindInputs(inputs)
	if err != nil {
		return nil, err
	}
	res := e.time(place)
	if res.Outputs, err = e.execute(values); err != nil {
		return nil, err
	}
	return res, nil
}

// time walks the placement once on the engine's platform, recording every
// subgraph and transfer on the timeline and in the busy-seconds metrics.
func (e *Engine) time(place Placement) *Result {
	res := &Result{}
	link := e.Platform.Link
	t := e.SampledTiming(e.Platform)
	t.OnTransfer = func(id graph.NodeID, from, to device.Kind, start, dur vclock.Seconds) {
		e.m.linkBusy.Add(dur)
		res.Timeline = append(res.Timeline, Span{
			Label:  fmt.Sprintf("xfer:%s→%s:%s", from, to, e.Parent.Node(id).Name),
			Device: link.Name,
			Start:  start,
			End:    start + dur,
		})
	}
	t.OnExec = func(i int, kind device.Kind, start, dur vclock.Seconds) {
		e.m.deviceBusy[kind].Add(dur)
		sub := e.subgraphs[i]
		res.Timeline = append(res.Timeline, Span{
			Label:  sub.Graph.Name + " [" + sub.Summary() + "]",
			Device: e.Platform.Device(kind).Name,
			Start:  start,
			End:    start + dur,
		})
	}
	var free [2]vclock.Seconds
	res.Latency = e.plan.Walk(place, &free, 0, t)
	return res
}

// bindInputs checks the caller's inputs against the parent graph's input
// names and shapes and keys them by node.
func (e *Engine) bindInputs(inputs map[string]*tensor.Tensor) (map[graph.NodeID]*tensor.Tensor, error) {
	values := make(map[graph.NodeID]*tensor.Tensor, e.Parent.Len())
	for _, id := range e.Parent.InputIDs() {
		n := e.Parent.Node(id)
		v, ok := inputs[n.Name]
		if !ok {
			return nil, fmt.Errorf("runtime: missing input %q", n.Name)
		}
		if !tensor.ShapeEq(v.Shape(), n.Shape) {
			return nil, fmt.Errorf("runtime: input %q has shape %v, want %v", n.Name, v.Shape(), n.Shape)
		}
		values[id] = v
	}
	return values, nil
}

// execute is the serial value executor: it runs every subgraph's module on
// the host in partition order, returns boundary values to the arena after
// their last consumer, and returns the graph outputs. Placement does not
// enter — a value is bit-identical whichever device the timing model put
// its subgraph on.
func (e *Engine) execute(values map[graph.NodeID]*tensor.Tensor) ([]*tensor.Tensor, error) {
	var uses map[graph.NodeID]int
	if e.arena != nil {
		uses = e.boundaryUses()
	}
	for i, sub := range e.subgraphs {
		subIn := make(map[string]*tensor.Tensor, len(sub.BoundaryInputs))
		for _, pid := range sub.BoundaryInputs {
			subIn["in."+e.Parent.Node(pid).Name] = values[pid]
		}
		outs, err := e.modules[i].ExecuteArena(subIn, e.arena)
		if err != nil {
			return nil, fmt.Errorf("runtime: executing %s: %w", sub.Graph.Name, err)
		}
		for oi, pid := range sub.Outputs {
			values[pid] = outs[oi]
		}
		e.releaseConsumed(sub.BoundaryInputs, uses, values)
	}
	outputs := make([]*tensor.Tensor, 0, len(e.Parent.Outputs()))
	for _, o := range e.Parent.Outputs() {
		outputs = append(outputs, values[o])
	}
	return outputs, nil
}

// boundaryUses counts, per parent node, how many subgraphs consume its value
// as a boundary input — the engine-level analogue of the module executor's
// release plan. Parent inputs and declared outputs get a sentinel use so
// they always survive the run (they belong to the caller).
func (e *Engine) boundaryUses() map[graph.NodeID]int {
	uses := make(map[graph.NodeID]int, e.Parent.Len())
	for _, sub := range e.subgraphs {
		for _, pid := range sub.BoundaryInputs {
			uses[pid]++
		}
	}
	for _, id := range e.Parent.InputIDs() {
		uses[id]++
	}
	for _, o := range e.Parent.Outputs() {
		uses[o]++
	}
	return uses
}

// releaseConsumed returns cross-subgraph intermediate values to the arena
// once their last consuming subgraph has executed. A value still referenced
// by an aliasing view elsewhere in values (a subgraph whose output is a
// reshape of its input shares storage with it) is left to the garbage
// collector instead. No-op when the arena is disabled or bookkeeping was
// not requested.
func (e *Engine) releaseConsumed(consumed []graph.NodeID, uses map[graph.NodeID]int, values map[graph.NodeID]*tensor.Tensor) {
	if e.arena == nil || uses == nil {
		return
	}
	for _, pid := range consumed {
		uses[pid]--
		if uses[pid] != 0 {
			continue
		}
		v := values[pid]
		if v == nil || len(v.Data()) == 0 {
			continue
		}
		shared := false
		for oid, o := range values {
			if oid != pid && o != nil && len(o.Data()) > 0 && &o.Data()[0] == &v.Data()[0] {
				shared = true
				break
			}
		}
		if !shared {
			e.arena.Release(v)
			delete(values, pid)
		}
	}
}

// MeasureLatency performs runs timing-only executions and returns every
// sample — the engine-level analogue of the paper's 5000-run measurement.
func (e *Engine) MeasureLatency(place Placement, runs int) ([]vclock.Seconds, error) {
	return sampleLatency(runs, func() (*Result, error) { return e.Run(nil, place, false) })
}

// sampleLatency collects the latencies of runs calls of run, stopping at
// the first error.
func sampleLatency(runs int, run func() (*Result, error)) ([]vclock.Seconds, error) {
	samples := make([]vclock.Seconds, 0, runs)
	for r := 0; r < runs; r++ {
		res, err := run()
		if err != nil {
			return nil, err
		}
		samples = append(samples, res.Latency)
	}
	return samples, nil
}

// SyncSkeleton returns the firing rule of the device-worker executors,
// derived from the compiled sync plan (hb.SyncPlanSubgraphs) that the
// happens-before verifier proves sufficient, so executors and proof cannot
// drift apart: dependents[j] lists the subgraphs waiting on subgraph j,
// pending[i] counts the subgraphs i waits on.
func (e *Engine) SyncSkeleton() (dependents [][]int, pending []int) {
	n := len(e.subgraphs)
	dependents, pending = make([][]int, n), make([]int, n)
	for _, se := range hb.SyncPlanSubgraphs(e.subgraphs) {
		pending[se.To]++
		dependents[se.From] = append(dependents[se.From], se.To)
	}
	return dependents, pending
}
