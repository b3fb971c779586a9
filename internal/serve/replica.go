package serve

import (
	"fmt"
	"sync"

	"duet/internal/device"
	"duet/internal/graph"
	"duet/internal/tensor"
	"duet/internal/vclock"
)

// replica is one engine replica: its own virtual CPU-GPU device pair (so
// timing noise streams are independent per replica), its own tensor arena,
// and two device-worker goroutines. Compiled modules and the weight pack
// cache are shared across replicas — weights are read-only — which is what
// makes replication cheap: a replica costs an arena, not a model copy.
type replica struct {
	id    int
	plat  *device.Platform
	arena *tensor.Arena
	// ch feeds each device worker its subgraph jobs. Capacity covers every
	// job of every in-flight batch, so workers never block on each other.
	ch [2]chan job

	// Event-loop-owned state (never touched by the workers): the per-device
	// virtual clocks, the in-flight batches ordered by finish time, and the
	// accumulated busy seconds.
	devFree  [2]vclock.Seconds
	inflight []*batch
	busy     [2]vclock.Seconds
}

// job asks a device worker to execute one subgraph of one batch.
type job struct {
	b   *batch
	idx int
}

func newReplica(id int, seed int64, maxJobs int) *replica {
	return &replica{
		id:    id,
		plat:  device.NewPlatform(replicaSeed(seed, id)),
		arena: tensor.NewArena(),
		ch:    [2]chan job{make(chan job, maxJobs), make(chan job, maxJobs)},
	}
}

// replicaSeed derives independent noise streams per replica; seed 0 keeps
// every replica noiseless.
func replicaSeed(seed int64, id int) int64 {
	if seed == 0 {
		return 0
	}
	return seed + 7919*int64(id+1)
}

// reset clears the per-run scheduling state (the arena stays warm across
// runs on purpose).
func (r *replica) reset() {
	r.devFree = [2]vclock.Seconds{}
	r.inflight = nil
	r.busy = [2]vclock.Seconds{}
}

// timeBatch walks the batch through the runtime's timing model against the
// replica's virtual device clocks, sampling the replica's own noise
// streams, and fixes the batch's finish time. In pipelined mode the clocks
// carry over from the previous batch — request r+1's CPU phase overlaps
// request r's GPU phase, as in runtime.MeasurePipelined — otherwise both
// clocks jump to the dispatch instant (one batch at a time). Event-loop
// thread only.
func (r *replica) timeBatch(b *batch, now vclock.Seconds, pipelined bool) {
	if !pipelined {
		start := now
		for k := range r.devFree {
			if r.devFree[k] > start {
				start = r.devFree[k]
			}
		}
		r.devFree[0], r.devFree[1] = start, start
	} else {
		for k := range r.devFree {
			if r.devFree[k] < now {
				r.devFree[k] = now
			}
		}
	}
	eng := b.be.eng
	t := eng.SampledTiming(r.plat)
	t.OnExec = func(_ int, kind device.Kind, _, dur vclock.Seconds) { r.busy[kind] += dur }
	b.finish = eng.Plan().Walk(b.be.place, &r.devFree, now, t)
}

// batch is one dispatched unit of work: the stacked inputs of its member
// requests flowing through one batchEngine on one replica. Value state is
// guarded by mu; the dependency counters start from the batch engine's
// firing rule, the one RunParallel fires on.
type batch struct {
	be       *batchEngine
	members  []*pending
	rowsPer  []int // member leading extents, StackLead/SplitLead order
	rows     int
	dispatch vclock.Seconds
	finish   vclock.Seconds

	mu        sync.Mutex
	values    map[graph.NodeID]*tensor.Tensor
	waiting   []int
	remaining int
	err       error

	// memberOuts[m][o] is member m's slice of output o, filled at finalize.
	memberOuts [][]*tensor.Tensor
	done       chan struct{}
}

// newBatch stacks the member inputs along the leading dimension (drawing
// from the replica's arena — serve owns the stacked copies, so the callers'
// input tensors are never touched again after dispatch) and initialises the
// dependency counters.
func newBatch(be *batchEngine, members []*pending, rows int, ar *tensor.Arena) *batch {
	b := &batch{
		be:        be,
		members:   members,
		rows:      rows,
		values:    make(map[graph.NodeID]*tensor.Tensor),
		waiting:   append([]int(nil), be.npred...),
		remaining: len(be.npred),
		done:      make(chan struct{}),
	}
	for _, p := range members {
		b.rowsPer = append(b.rowsPer, p.rows)
	}
	parts := make([]*tensor.Tensor, len(members))
	for _, id := range be.eng.Parent.InputIDs() {
		name := be.eng.Parent.Node(id).Name
		for mi, p := range members {
			parts[mi] = p.req.Inputs[name]
		}
		b.values[id] = tensor.StackLead(ar, parts...)
	}
	return b
}

// deviceWorker drains one device's job channel for one replica. The two
// workers of a replica execute concurrently — this is where a batch's CPU
// subgraphs genuinely overlap another batch's GPU subgraphs on the host.
func (s *Server) deviceWorker(r *replica, dev int) {
	defer s.wg.Done()
	for j := range r.ch[dev] {
		s.execJob(r, j)
	}
}

// execJob runs one subgraph's compiled module for real, publishes its
// outputs, and forwards newly-ready dependents to their devices' workers.
// The worker completing the batch's last subgraph finalizes it.
func (s *Server) execJob(r *replica, j job) {
	b := j.b
	be := b.be
	sub := be.eng.Subgraphs()[j.idx]
	parent := be.eng.Parent

	b.mu.Lock()
	subIn := make(map[string]*tensor.Tensor, len(sub.BoundaryInputs))
	for _, pid := range sub.BoundaryInputs {
		subIn["in."+parent.Node(pid).Name] = b.values[pid]
	}
	b.mu.Unlock()

	outs, err := be.eng.Module(j.idx).ExecuteArena(subIn, r.arena)

	b.mu.Lock()
	if err != nil {
		if b.err == nil {
			b.err = fmt.Errorf("serve: executing %s: %w", sub.Graph.Name, err)
		}
		// Zero placeholders keep the dataflow draining (cf. RunParallel's
		// error path); the batch reports the error, not the values.
		for _, pid := range sub.Outputs {
			b.values[pid] = tensor.New(parent.Node(pid).Shape...)
		}
	} else {
		for oi, pid := range sub.Outputs {
			b.values[pid] = outs[oi]
		}
	}
	var ready []int
	for _, c := range be.deps[j.idx] {
		b.waiting[c]--
		if b.waiting[c] == 0 {
			ready = append(ready, c)
		}
	}
	b.remaining--
	last := b.remaining == 0
	b.mu.Unlock()

	for _, c := range ready {
		r.ch[be.place[c]] <- job{b: b, idx: c}
	}
	if last {
		b.finalize(r.arena)
		close(b.done)
	}
}

// finalize splits the batched outputs back per member and recycles the
// batch's boundary tensors. A single-member batch hands its output tensors
// through directly (no copy, protected from recycling); a multi-member
// batch's members get independent row copies via SplitLead, making the
// split bit-identical to running each request alone. Runs on the worker
// that completed the last subgraph; no lock needed — the dataflow is over.
func (b *batch) finalize(ar *tensor.Arena) {
	if b.err != nil {
		return
	}
	outIDs := b.be.eng.Parent.Outputs()
	b.memberOuts = make([][]*tensor.Tensor, len(b.members))
	for mi := range b.memberOuts {
		b.memberOuts[mi] = make([]*tensor.Tensor, len(outIDs))
	}
	protect := map[*float32]bool{}
	if len(b.members) == 1 {
		for oi, oid := range outIDs {
			v := b.values[oid]
			b.memberOuts[0][oi] = v
			if v != nil && len(v.Data()) > 0 {
				protect[&v.Data()[0]] = true
			}
		}
	} else {
		for oi, oid := range outIDs {
			pieces := tensor.SplitLead(b.values[oid], b.rowsPer)
			for mi := range b.members {
				b.memberOuts[mi][oi] = pieces[mi]
			}
		}
	}
	// Return every remaining boundary tensor (stacked inputs included — serve
	// owns those copies) to the replica arena. Head-pointer dedup guards
	// aliases: a value sharing storage with a handed-out output is protected,
	// and shared storage is released at most once.
	released := map[*float32]bool{}
	for _, v := range b.values {
		if v == nil || len(v.Data()) == 0 {
			continue
		}
		head := &v.Data()[0]
		if protect[head] || released[head] {
			continue
		}
		released[head] = true
		ar.Release(v)
	}
}
