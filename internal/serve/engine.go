package serve

import (
	"fmt"

	"duet/internal/compiler"
	"duet/internal/core"
	"duet/internal/device"
	"duet/internal/graph"
	"duet/internal/partition"
	"duet/internal/runtime"
	"duet/internal/vclock"
	"duet/internal/verify"
)

// batchEngine bundles everything the server needs to run one batch size:
// the compiled modules (shared read-only by every replica — the underlying
// weight packs additionally dedupe through the process-wide pack cache), a
// serving placement, and the subgraph dependency skeleton the replica
// device workers walk. The base batch size reuses the core engine's
// modules outright; other sizes compile the BatchGraph sibling once, on
// first use, through the identical optimization pipeline.
type batchEngine struct {
	rows int
	eng  *runtime.Engine
	// place is the serving placement for this batch size (see
	// servingPlacement).
	place runtime.Placement
	// splitOK reports that every graph output carries the batch extent as
	// its leading dimension, i.e. a multi-member batch can be split back
	// per member.
	splitOK bool

	// Firing rule over flat subgraph indices (runtime.Engine.SyncSkeleton):
	// deps[j] lists the subgraphs waiting on j, npred[i] counts the
	// subgraphs i waits on. Workers walk this dataflow instead of partition
	// order so a replica's two devices genuinely execute concurrently.
	deps  [][]int
	npred []int
}

// newBaseEngine wraps the already-built core engine as the base batch size.
func newBaseEngine(ce *core.Engine, pipelined bool) (*batchEngine, error) {
	rows, err := leadingRows(ce.Runtime.Parent)
	if err != nil {
		return nil, err
	}
	be := &batchEngine{rows: rows, eng: ce.Runtime}
	be.splitOK = outputsSplittable(ce.Runtime.Parent, rows)
	if pipelined {
		be.place = throughputPlacement(ce.Runtime)
	} else {
		be.place = ce.Placement.Clone()
	}
	if err := be.prepare(); err != nil {
		return nil, err
	}
	return be, nil
}

// prepare runs the verifier's placement pass over the serving placement
// before any replica dereferences it (replica workers index be.place on the
// hot path without further checks), then takes the workers' firing rule
// from the engine's sync skeleton.
func (be *batchEngine) prepare() error {
	if err := verify.CheckPlacement([]device.Kind(be.place), be.eng.Partition); err != nil {
		return fmt.Errorf("serve: batch size %d: %w", be.rows, err)
	}
	be.deps, be.npred = be.eng.SyncSkeleton()
	return nil
}

// newBatchEngine compiles the model at a new total batch extent. The graph
// comes from the BatchGraph factory (same weights, resized leading
// dimension) and goes through the same partitioner and compiler options as
// the base engine. The platform is noiseless: modules and tuned kernel
// costs are platform-seed independent, and timing noise is sampled from
// each replica's own platform, not from here.
func newBatchEngine(cfg Config, rows int, base *batchEngine) (*batchEngine, error) {
	g, err := cfg.BatchGraph(rows)
	if err != nil {
		return nil, fmt.Errorf("serve: BatchGraph(%d): %w", rows, err)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("serve: BatchGraph(%d): %w", rows, err)
	}
	if err := compiler.InferShapes(g); err != nil {
		return nil, fmt.Errorf("serve: BatchGraph(%d): %w", rows, err)
	}
	// The batched sibling must present the same interface as the base model,
	// scaled to rows: same input names and trailing dims, leading dim == rows.
	baseParent := base.eng.Parent
	baseIn := map[string][]int{}
	for _, id := range baseParent.InputIDs() {
		n := baseParent.Node(id)
		baseIn[n.Name] = n.Shape[1:]
	}
	ids := g.InputIDs()
	if len(ids) != len(baseIn) {
		return nil, fmt.Errorf("serve: BatchGraph(%d) has %d inputs, base model has %d", rows, len(ids), len(baseIn))
	}
	for _, id := range ids {
		n := g.Node(id)
		trailing, ok := baseIn[n.Name]
		if !ok {
			return nil, fmt.Errorf("serve: BatchGraph(%d) input %q not in base model", rows, n.Name)
		}
		if len(n.Shape) == 0 || n.Shape[0] != rows || !shapeEq(n.Shape[1:], trailing) {
			return nil, fmt.Errorf("serve: BatchGraph(%d) input %q has shape %v, want (%d, %v)", rows, n.Name, n.Shape, rows, trailing)
		}
	}

	part, err := partition.Build(g)
	if err != nil {
		return nil, fmt.Errorf("serve: partitioning BatchGraph(%d): %w", rows, err)
	}
	eng, err := runtime.New(part, device.NewPlatform(0), cfg.Engine.Options)
	if err != nil {
		return nil, fmt.Errorf("serve: compiling BatchGraph(%d): %w", rows, err)
	}
	be := &batchEngine{rows: rows, eng: eng}
	be.splitOK = outputsSplittable(g, rows)
	if !be.splitOK {
		return nil, fmt.Errorf("serve: BatchGraph(%d) outputs lack a leading batch dimension of %d — batched results could not be split per request", rows, rows)
	}
	if cfg.Pipelined {
		be.place = throughputPlacement(eng)
	} else {
		be.place = latencyPlacement(eng)
	}
	if err := be.prepare(); err != nil {
		return nil, err
	}
	return be, nil
}

// leadingRows returns the model's base batch extent: the shared leading
// dimension of every graph input.
func leadingRows(g *graph.Graph) (int, error) {
	rows := 0
	for _, id := range g.InputIDs() {
		n := g.Node(id)
		if len(n.Shape) == 0 {
			return 0, fmt.Errorf("serve: input %q is a scalar — no leading batch dimension to serve over", n.Name)
		}
		if rows == 0 {
			rows = n.Shape[0]
		} else if n.Shape[0] != rows {
			return 0, fmt.Errorf("serve: inputs disagree on the leading batch dimension (%d vs %d at %q)", rows, n.Shape[0], n.Name)
		}
	}
	if rows <= 0 {
		return 0, fmt.Errorf("serve: model has no inputs to serve over")
	}
	return rows, nil
}

// outputsSplittable reports whether every declared output carries rows as
// its leading dimension.
func outputsSplittable(g *graph.Graph, rows int) bool {
	for _, o := range g.Outputs() {
		shape := g.Node(o).Shape
		if len(shape) == 0 || shape[0] != rows {
			return false
		}
	}
	return true
}

func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// kindCost sums subgraph i's tuned kernel times on the given device kind,
// noiselessly.
func kindCost(eng *runtime.Engine, i int, kind device.Kind) vclock.Seconds {
	dev := eng.Platform.Device(kind)
	var sum vclock.Seconds
	for _, c := range eng.KernelCosts(i, kind) {
		sum += dev.KernelTime(c)
	}
	return sum
}

// latencyPlacement assigns each subgraph its faster device — the greedy
// first step of DUET's scheduler, used for lazily-compiled batch sizes
// where running the full profile+correction pipeline per size would defeat
// the point of dynamic batching.
func latencyPlacement(eng *runtime.Engine) runtime.Placement {
	n := eng.NumSubgraphs()
	place := make(runtime.Placement, n)
	for i := 0; i < n; i++ {
		if kindCost(eng, i, device.CPU) <= kindCost(eng, i, device.GPU) {
			place[i] = device.CPU
		} else {
			place[i] = device.GPU
		}
	}
	return place
}

// throughputPlacement balances the two devices' busy time instead of the
// single-request critical path. Under pipelining a replica's steady-state
// period is max(cpuBusy, gpuBusy): the latency-optimal placement often
// leaves the bottleneck device at 100% duty (zero overlap headroom), so we
// start from the faster-device assignment and greedily move subgraphs off
// the bottleneck while the makespan bound improves. Transfers are ignored —
// on the paper's coupled CPU-GPU architecture the copy cost is the premise
// being exploited, and the event loop still charges them when they happen.
func throughputPlacement(eng *runtime.Engine) runtime.Placement {
	n := eng.NumSubgraphs()
	place := latencyPlacement(eng)
	var busy [2]vclock.Seconds
	cost := make([][2]vclock.Seconds, n)
	for i := 0; i < n; i++ {
		cost[i] = [2]vclock.Seconds{
			device.CPU: kindCost(eng, i, device.CPU),
			device.GPU: kindCost(eng, i, device.GPU),
		}
		busy[place[i]] += cost[i][place[i]]
	}
	for {
		bottleneck := device.CPU
		if busy[device.GPU] > busy[device.CPU] {
			bottleneck = device.GPU
		}
		other := device.CPU
		if bottleneck == device.CPU {
			other = device.GPU
		}
		cur := busy[bottleneck]
		best := -1
		bestPeak := cur
		for i := 0; i < n; i++ {
			if place[i] != bottleneck {
				continue
			}
			peak := busy[bottleneck] - cost[i][bottleneck]
			if alt := busy[other] + cost[i][other]; alt > peak {
				peak = alt
			}
			if peak < bestPeak {
				bestPeak = peak
				best = i
			}
		}
		if best < 0 {
			return place
		}
		busy[bottleneck] -= cost[best][bottleneck]
		busy[other] += cost[best][other]
		place[best] = other
	}
}

// criticalPath computes the noiseless single-batch latency of this engine
// under its serving placement — the admission controller's minimum-service
// estimate.
func (be *batchEngine) criticalPath() vclock.Seconds {
	eng := be.eng
	var free [2]vclock.Seconds
	return eng.Plan().Walk(be.place, &free, 0, runtime.Timing{
		Exec:     func(i int, kind device.Kind) vclock.Seconds { return kindCost(eng, i, kind) },
		Transfer: eng.Platform.Link.TransferTime,
	})
}
