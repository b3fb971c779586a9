package runtime

import (
	"fmt"

	"duet/internal/device"
	"duet/internal/graph"
	"duet/internal/vclock"
)

// Plan is the value-indexed dataflow of a partitioned model, precomputed
// once so that timing a placement touches no maps: per subgraph, the
// boundary values it consumes and publishes, and the graph outputs the host
// gathers at the end. Walk runs the runtime's one timing model over it.
type Plan struct {
	values []planValue
	// consumes[i] lists the values subgraph i reads, in BoundaryInputs
	// order; produces[i] the values it publishes, in Outputs order.
	consumes [][]int
	produces [][]int
	// results lists the graph outputs, in Parent.Outputs() order.
	results []int
}

// planValue is one graph input or subgraph output.
type planValue struct {
	id    graph.NodeID
	bytes int
	// input marks a graph input, resident on the host when a request
	// arrives.
	input bool
}

// NewPlan indexes the dataflow of subs (flat partition order) over their
// parent graph. It fails when a subgraph consumes, or the graph outputs, a
// value that neither is a graph input nor was produced by an earlier
// subgraph — a partition no serial executor can run.
func NewPlan(parent *graph.Graph, subs []*graph.Subgraph) (*Plan, error) {
	p := &Plan{consumes: make([][]int, len(subs)), produces: make([][]int, len(subs))}
	// index holds exactly the values available so far in partition order.
	index := map[graph.NodeID]int{}
	intern := func(id graph.NodeID) int {
		index[id] = len(p.values)
		p.values = append(p.values, planValue{id: id, bytes: parent.DataSize(id)})
		return len(p.values) - 1
	}
	lookup := func(id graph.NodeID) (int, error) {
		vi, ok := index[id]
		if !ok {
			return 0, fmt.Errorf("runtime: value of node %q consumed before production", parent.Node(id).Name)
		}
		return vi, nil
	}
	for _, id := range parent.InputIDs() {
		p.values[intern(id)].input = true
	}
	for i, sub := range subs {
		for _, id := range sub.BoundaryInputs {
			vi, err := lookup(id)
			if err != nil {
				return nil, err
			}
			p.consumes[i] = append(p.consumes[i], vi)
		}
		for _, id := range sub.Outputs {
			p.produces[i] = append(p.produces[i], intern(id))
		}
	}
	for _, id := range parent.Outputs() {
		vi, err := lookup(id)
		if err != nil {
			return nil, err
		}
		p.results = append(p.results, vi)
	}
	return p, nil
}

// Timing supplies a walk's durations and, optionally, observes its spans.
type Timing struct {
	// Exec returns subgraph i's execution time on the given device.
	Exec func(i int, kind device.Kind) vclock.Seconds
	// Transfer returns the time to move bytes across the interconnect.
	Transfer func(bytes int) vclock.Seconds
	// OnExec and OnTransfer, when non-nil, see every span in the order the
	// walk schedules it; a span ends at start+dur.
	OnExec     func(i int, kind device.Kind, start, dur vclock.Seconds)
	OnTransfer func(id graph.NodeID, from, to device.Kind, start, dur vclock.Seconds)
}

// Walk times one request under the runtime's serial list-scheduling model
// (§IV-D): subgraphs dispatch in partition order onto per-device queues,
// each starting once its device is free and its boundary inputs are
// resident; a value missing on the consuming device pays one transfer from
// the other, and each dispatch pays the synchronization-queue overhead.
// Graph inputs sit on the host from ready on, and the outputs are gathered
// back to the host at the end. free holds the device clocks and is advanced
// in place, so consecutive walks queue behind each other (pipelining). It
// returns the instant the last output reaches the host.
//
// Durations are drawn in a fixed order — per subgraph, its missing inputs'
// transfers in BoundaryInputs order, then its execution; finally the output
// transfers in Parent.Outputs() order — so sampled timings replay exactly
// under a seed.
func (p *Plan) Walk(place Placement, free *[2]vclock.Seconds, ready vclock.Seconds, t Timing) vclock.Seconds {
	const unavailable = -1
	avail := make([][2]vclock.Seconds, len(p.values))
	for vi, v := range p.values {
		avail[vi] = [2]vclock.Seconds{unavailable, unavailable}
		if v.input {
			avail[vi][device.CPU] = ready
		}
	}
	ensureOn := func(vi int, kind device.Kind) vclock.Seconds {
		a := &avail[vi]
		if a[kind] >= 0 {
			return a[kind]
		}
		from := other(kind)
		start := a[from]
		dur := t.Transfer(p.values[vi].bytes)
		a[kind] = start + dur
		if t.OnTransfer != nil {
			t.OnTransfer(p.values[vi].id, from, kind, start, dur)
		}
		return a[kind]
	}
	for i, in := range p.consumes {
		kind := place[i]
		start := free[kind]
		for _, vi := range in {
			if at := ensureOn(vi, kind); at > start {
				start = at
			}
		}
		start += syncQueueOverhead
		dur := t.Exec(i, kind)
		end := start + dur
		free[kind] = end
		if t.OnExec != nil {
			t.OnExec(i, kind, start, dur)
		}
		for _, vi := range p.produces[i] {
			avail[vi][kind] = end
		}
	}
	finish := ready
	for _, vi := range p.results {
		if at := ensureOn(vi, device.CPU); at > finish {
			finish = at
		}
	}
	return finish
}

// SampledTiming returns walk durations drawn from plat's noise streams:
// each of the subgraph's tuned kernels sampled in order and summed, and
// each transfer sampled on plat's link. plat must carry the device models
// the engine was tuned for (any seed of device.NewPlatform).
func (e *Engine) SampledTiming(plat *device.Platform) Timing {
	return Timing{
		Exec: func(i int, kind device.Kind) vclock.Seconds {
			dev := plat.Device(kind)
			var dur vclock.Seconds
			for _, c := range e.tuned[i][kind] {
				dur += dev.SampleKernelTime(c)
			}
			return dur
		},
		Transfer: plat.Link.SampleTransferTime,
	}
}
