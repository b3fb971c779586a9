// Package serve is DUET's concurrent inference serving layer: a bounded
// admission queue with deadline-aware (EDF) ordering and backpressure, a
// dynamic micro-batcher that coalesces compatible requests along the
// leading batch dimension, and a pool of engine replicas that execute
// concurrently — sharing compiled modules and the process-wide weight pack
// cache while owning per-replica tensor arenas and virtual device pairs.
//
// Scheduling runs as a deterministic discrete-event loop on the virtual
// clock (arrivals, batch-window expiries, deadline lapses, completions), so
// throughput and latency percentiles reproduce exactly under a seed. Tensor
// values are computed for real: every replica owns two device-worker
// goroutines (the paper's §IV-D two-process architecture, lifted to a
// request stream), so consecutive batches' CPU and GPU phases genuinely
// overlap on the host while the virtual device clocks account for the
// modelled time. In pipelined mode the per-device clocks carry over between
// consecutive batches — the wall-clock counterpart of
// runtime.MeasurePipelined — and outputs stay bit-identical to independent
// single-request Infer calls.
package serve

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"duet/internal/core"
	"duet/internal/device"
	"duet/internal/graph"
	"duet/internal/hb"
	"duet/internal/obs"
	"duet/internal/tensor"
	"duet/internal/vclock"
)

// Outcome classifies how the server disposed of a request.
type Outcome string

const (
	// OK: executed and delivered.
	OK Outcome = "ok"
	// Rejected: refused at admission (queue full, unattainable deadline, or
	// malformed inputs).
	Rejected Outcome = "rejected"
	// Expired: admitted but its deadline passed before dispatch.
	Expired Outcome = "expired"
	// Failed: dispatched but execution errored.
	Failed Outcome = "failed"
)

// ShedReason classifies why a request was shed (Rejected or Expired) so
// operators can tell overload apart from SLA misses and deliberate
// degradation. Delivered requests carry ShedNone.
type ShedReason string

const (
	// ShedNone: the request was not shed.
	ShedNone ShedReason = ""
	// ShedDeadline: the deadline lapsed in the queue, or admission control
	// proved it unattainable up front.
	ShedDeadline ShedReason = "deadline"
	// ShedBackpressure: the admission queue was full.
	ShedBackpressure ShedReason = "backpressure"
	// ShedBrownout: deliberate degradation — the cluster layer sheds
	// low-priority work when node capacity drops below its brownout
	// threshold. Never produced by a single-process server.
	ShedBrownout ShedReason = "brownout"
	// ShedInvalid: the request's inputs did not match the model signature.
	ShedInvalid ShedReason = "invalid"
)

// Request is one inference submitted to the server. Inputs must carry the
// model's input names with the model's trailing dimensions; the leading
// (batch) dimension may be any b ≥ 1 and must agree across all inputs, so a
// caller may submit pre-batched work.
type Request struct {
	ID      int
	Arrival vclock.Seconds
	// Deadline is an absolute virtual time; 0 means none.
	Deadline vclock.Seconds
	Inputs   map[string]*tensor.Tensor
}

// Response is the terminal disposition of one request.
type Response struct {
	ID      int
	Outcome Outcome
	// Reason classifies a shed (Rejected/Expired) response; ShedNone
	// otherwise.
	Reason ShedReason
	// Outputs holds the request's slice of the (possibly batched) model
	// outputs — independent copies the caller owns. Nil unless Outcome is OK.
	Outputs []*tensor.Tensor
	Err     error

	Arrival  vclock.Seconds
	Dispatch vclock.Seconds
	Finish   vclock.Seconds
	// Latency is Finish - Arrival (queueing + batching + service).
	Latency vclock.Seconds
	// BatchRows is the total leading-dimension extent of the batch the
	// request rode in (its own rows included).
	BatchRows int
	Replica   int
}

// Config assembles a Server.
type Config struct {
	// Engine is the built DUET engine being served. Its compiled modules are
	// shared by every replica at the base batch size, and its compiler
	// options and placement seed the batched sibling engines.
	Engine *core.Engine
	// BatchGraph rebuilds the model graph with the given total leading batch
	// dimension. The sibling must expose the same input names and trailing
	// dims (leading dim == batch), outputs must carry the batch as their
	// leading dim, and weights must be bit-identical to the base model's —
	// builders guarantee this by deriving weights from the model seed, never
	// from the batch size. nil disables coalescing: every request is served
	// at its own batch size, which must equal the base model's.
	BatchGraph func(batch int) (*graph.Graph, error)
	// Replicas is the number of engine replicas (virtual CPU-GPU device
	// pairs). Default 1.
	Replicas int
	// QueueCap bounds the admission queue in rows; arrivals beyond it are
	// rejected (backpressure). Default 256.
	QueueCap int
	// MaxBatch is the micro-batcher's size cap in rows. 1 disables
	// coalescing. Default 1.
	MaxBatch int
	// Window is the micro-batcher's maximum accumulation latency. The
	// effective wait adapts to fill — expiry = oldest + Window·(1 -
	// rows/MaxBatch) — so a nearly full batch flushes almost immediately
	// while a lone straggler waits the whole window. Default 2 ms.
	Window vclock.Seconds
	// Pipelined carries each replica's per-device virtual clocks across
	// consecutive batches, so one batch's CPU phases overlap the previous
	// batch's GPU phases (and vice versa). When false, a replica serves one
	// batch at a time with clocks reset at batch boundaries.
	Pipelined bool
	// Depth is the per-replica in-flight batch limit in pipelined mode.
	// Default 2 (enough to keep both devices busy).
	Depth int
	// Admission, when true, rejects requests whose absolute deadline cannot
	// be met even with an empty queue (now + minimal service > deadline).
	Admission bool
	// Seed drives per-replica timing noise. 0 is noiseless.
	Seed int64
	// Registry receives serving metrics (request outcomes, latency
	// histogram, queue depth, batch-size histogram, per-replica busy
	// seconds). nil disables instrumentation.
	Registry *obs.Registry
}

// Server schedules concurrent inference over a replica pool.
type Server struct {
	cfg      Config
	replicas []*replica
	engines  map[int]*batchEngine // keyed by total batch rows
	baseRows int
	inputSig map[string][]int // input name -> trailing dims
	sig      string           // the model's batching signature
	minSvc   vclock.Seconds   // noiseless single-request service estimate
	m        serveMetrics

	wg sync.WaitGroup
}

// New validates the configuration, wraps the engine's compiled modules as
// the base batch size (no recompilation), and starts the replica device
// workers. Call Close when done.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("serve: Config.Engine is required")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 256
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1
	}
	if cfg.Window <= 0 {
		cfg.Window = 2e-3
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 2
	}
	if !cfg.Pipelined {
		cfg.Depth = 1
	}

	s := &Server{cfg: cfg, engines: map[int]*batchEngine{}}
	base, err := newBaseEngine(cfg.Engine, cfg.Pipelined)
	if err != nil {
		return nil, err
	}
	if cfg.MaxBatch > 1 && !base.splitOK {
		return nil, fmt.Errorf("serve: model outputs lack a leading batch dimension — micro-batching cannot split results per request")
	}
	s.baseRows = base.rows
	s.engines[base.rows] = base
	s.inputSig = map[string][]int{}
	parent := base.eng.Parent
	for _, id := range parent.InputIDs() {
		n := parent.Node(id)
		s.inputSig[n.Name] = n.Shape[1:]
	}
	s.sig = sigOf(s.inputSig)

	// Noiseless single-request service estimate for admission control: the
	// base engine's critical path under the serving placement.
	s.minSvc = base.criticalPath()

	// Pipelined mode admits up to Depth in-flight requests per replica.
	// Statically verify that regime before starting workers: the
	// happens-before graph over Depth+1 request replicas (per-device FIFO +
	// depth edges) must stay acyclic and leave no request's value accesses
	// unordered — the serving-time extension of verify.CheckHB.
	if cfg.Pipelined {
		if err := verifyPipelined(cfg.Engine, cfg.Depth); err != nil {
			return nil, err
		}
	}

	s.m.init(cfg.Registry, cfg.Replicas)
	// Generous channel capacity: at most Depth in-flight batches each
	// contribute one job per subgraph, and batched siblings partition to the
	// same subgraph count as the base graph (same topology). The headroom
	// keeps workers from ever blocking on a forward even if a sibling
	// partitions differently.
	maxJobs := cfg.Depth*len(base.eng.Subgraphs())*4 + 16
	for i := 0; i < cfg.Replicas; i++ {
		s.replicas = append(s.replicas, newReplica(i, cfg.Seed, maxJobs))
	}
	for _, r := range s.replicas {
		s.wg.Add(2)
		go s.deviceWorker(r, 0)
		go s.deviceWorker(r, 1)
	}
	return s, nil
}

// verifyPipelined builds the pipelined happens-before graph — the engine's
// schedule replicated across depth+1 in-flight requests, chained by
// per-device FIFO order and bounded by pipe edges — and rejects the
// configuration if it deadlocks (HB cycle) or races. Request-local tensor
// buffers are namespaced per request, so the check verifies both each
// request's internal ordering and that the cross-request interleaving adds
// no hazard.
func verifyPipelined(e *core.Engine, depth int) error {
	sched := hb.FromPlacement(e.Partition, []device.Kind(e.Placement))
	plan := hb.SyncPlan(e.Partition)
	g, err := hb.Build(sched, plan, hb.Options{Requests: depth + 1, Depth: depth})
	if err != nil {
		return fmt.Errorf("serve: building pipelined happens-before graph: %w", err)
	}
	if g.Cyclic() {
		return fmt.Errorf("serve: pipelined schedule at depth %d deadlocks: %s", depth, g.CycleLabels())
	}
	if races := hb.Detect(g, hb.Accesses(e.Partition.Subgraphs(), e.Graph, nil, g)); len(races) > 0 {
		return fmt.Errorf("serve: pipelined schedule at depth %d: %w", depth, hb.AsError(races))
	}
	return nil
}

// Close shuts the replica device workers down. The server must be idle (no
// Run in progress).
func (s *Server) Close() {
	for _, r := range s.replicas {
		close(r.ch[0])
		close(r.ch[1])
	}
	s.wg.Wait()
}

// MinService returns the noiseless single-request service-time estimate the
// admission controller uses.
func (s *Server) MinService() vclock.Seconds { return s.minSvc }

// Placement returns the serving placement used for the given total batch
// rows, compiling that batch engine first if needed.
func (s *Server) Placement(rows int) (string, error) {
	be, err := s.batchEngineFor(rows)
	if err != nil {
		return "", err
	}
	return be.place.String(), nil
}

const inf = math.MaxFloat64

// Run serves the request stream to completion and returns the per-request
// responses (input order) plus an aggregate report. The stream is
// open-loop: arrival times are part of the requests, and the event loop
// interleaves arrivals, batch-window expiries, deadline lapses, and
// completions in virtual-time order. Run may be called repeatedly; device
// clocks reset between runs, arenas stay warm.
func (s *Server) Run(reqs []Request) (*Report, []Response, error) {
	for _, r := range s.replicas {
		r.reset()
	}
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return reqs[order[a]].Arrival < reqs[order[b]].Arrival })

	responses := make([]Response, len(reqs))
	q := newAdmitQueue(s.cfg.QueueCap)
	delivered := 0
	var makespan vclock.Seconds

	deliver := func(p *pending) {
		responses[p.pos] = p.resp
		delivered++
		if p.resp.Finish > makespan {
			makespan = p.resp.Finish
		}
		s.m.recordOutcome(&p.resp)
	}

	now := vclock.Seconds(0)
	ai := 0
	for delivered < len(reqs) {
		// Next event: completion, arrival, queue-head deadline lapse, or —
		// when a replica could actually accept work — batch-window expiry.
		t := inf
		for _, r := range s.replicas {
			if len(r.inflight) > 0 && r.inflight[0].finish < t {
				t = r.inflight[0].finish
			}
		}
		if ai < len(order) && reqs[order[ai]].Arrival < t {
			t = reqs[order[ai]].Arrival
		}
		if head := q.peek(); head != nil && head.req.Deadline > 0 && head.req.Deadline < t {
			t = head.req.Deadline
		}
		if s.hasFreeReplica() {
			if w := s.windowExpiry(q, now); w < t {
				t = w
			}
		}
		if t == inf {
			return nil, nil, fmt.Errorf("serve: scheduler stalled with %d undelivered requests (%d rows queued)", len(reqs)-delivered, q.rows)
		}
		if t > now {
			now = t
		}

		// Completions first: freed replica slots are visible to this
		// instant's dispatch decisions.
		for _, r := range s.replicas {
			for len(r.inflight) > 0 && r.inflight[0].finish <= now {
				b := r.inflight[0]
				r.inflight = r.inflight[1:]
				<-b.done // join the real value computation
				s.finishBatch(b, deliver)
			}
			s.m.replicaBusy(r)
		}

		// Shed admitted requests whose deadline has lapsed. The EDF heap
		// keeps the earliest deadline at the head, so checking only the head
		// is exhaustive (deadline-less requests sort last).
		for {
			head := q.peek()
			if head == nil || head.req.Deadline <= 0 || head.req.Deadline > now {
				break
			}
			q.popMin()
			head.resp.Outcome = Expired
			head.resp.Reason = ShedDeadline
			head.resp.Err = fmt.Errorf("serve: deadline expired after %.3fms in queue", (now-head.resp.Arrival)*1e3)
			head.resp.Finish = now
			deliver(head)
		}

		// Arrivals.
		for ai < len(order) && reqs[order[ai]].Arrival <= now {
			pos := order[ai]
			ai++
			p := &pending{pos: pos, seq: pos, req: &reqs[pos]}
			p.resp = Response{ID: reqs[pos].ID, Arrival: reqs[pos].Arrival}
			if err := s.admit(q, p, now); err != nil {
				p.resp.Outcome = Rejected
				p.resp.Err = err
				p.resp.Finish = now
				deliver(p)
				continue
			}
		}
		s.m.queueDepth(q.rows)

		// Dispatch as much as the replicas and the batcher allow.
		if err := s.dispatchAll(q, now); err != nil {
			return nil, nil, err
		}
		s.m.queueDepth(q.rows)
	}

	return buildReport(s, responses, makespan), responses, nil
}

func (s *Server) hasFreeReplica() bool {
	for _, r := range s.replicas {
		if len(r.inflight) < s.cfg.Depth {
			return true
		}
	}
	return false
}

// admit validates and enqueues an arrival, or returns the rejection reason
// (also recorded as the pending response's typed ShedReason).
func (s *Server) admit(q *admitQueue, p *pending, now vclock.Seconds) error {
	rows, err := s.validate(p.req)
	if err != nil {
		p.resp.Reason = ShedInvalid
		return err
	}
	if s.cfg.BatchGraph == nil && rows != s.baseRows {
		p.resp.Reason = ShedInvalid
		return fmt.Errorf("serve: request has batch %d but the model is compiled for %d and no BatchGraph factory is configured", rows, s.baseRows)
	}
	p.rows = rows
	p.sig = s.sig
	if s.cfg.Admission && p.req.Deadline > 0 && p.req.Deadline < now+s.minSvc {
		p.resp.Reason = ShedDeadline
		return fmt.Errorf("serve: deadline %.3fms out is unattainable (minimum service %.3fms)",
			(p.req.Deadline-now)*1e3, s.minSvc*1e3)
	}
	if !q.push(p, now) {
		p.resp.Reason = ShedBackpressure
		return fmt.Errorf("serve: admission queue full (%d of %d rows)", q.rows, q.cap)
	}
	return nil
}

// validate checks a request's inputs against the model signature and
// returns the request's leading batch extent.
func (s *Server) validate(req *Request) (int, error) {
	rows := 0
	for name, trailing := range s.inputSig {
		v, ok := req.Inputs[name]
		if !ok {
			return 0, fmt.Errorf("serve: missing input %q", name)
		}
		shape := v.Shape()
		if len(shape) != len(trailing)+1 || !shapeEq(shape[1:], trailing) {
			return 0, fmt.Errorf("serve: input %q has shape %v, want (b, %v) — incompatible shapes are never coalesced", name, shape, trailing)
		}
		if rows == 0 {
			rows = shape[0]
		} else if shape[0] != rows {
			return 0, fmt.Errorf("serve: inconsistent leading batch: input %q has %d rows, want %d", name, shape[0], rows)
		}
	}
	if rows <= 0 {
		return 0, fmt.Errorf("serve: request has no rows")
	}
	if len(req.Inputs) != len(s.inputSig) {
		return 0, fmt.Errorf("serve: request carries %d inputs, model takes %d", len(req.Inputs), len(s.inputSig))
	}
	return rows, nil
}

// windowExpiry returns the virtual time at which the batcher would flush
// the current queue head even though the batch is not full, or +inf when
// the queue is empty.
func (s *Server) windowExpiry(q *admitQueue, now vclock.Seconds) vclock.Seconds {
	head := q.peek()
	if head == nil {
		return inf
	}
	rows, oldest := q.collect(head.sig)
	frac := float64(rows) / float64(s.cfg.MaxBatch)
	if frac >= 1 {
		return now
	}
	return oldest + s.cfg.Window*vclock.Seconds(1-frac)
}

// dispatchAll forms and dispatches batches while a replica has a free slot
// and the batcher is willing to flush. The least-loaded replica takes the
// next batch.
func (s *Server) dispatchAll(q *admitQueue, now vclock.Seconds) error {
	for {
		var free *replica
		for _, r := range s.replicas {
			if len(r.inflight) < s.cfg.Depth && (free == nil || len(r.inflight) < len(free.inflight)) {
				free = r
			}
		}
		if free == nil {
			return nil
		}
		members := s.formBatch(q, now)
		if len(members) == 0 {
			return nil
		}
		if err := s.dispatch(free, members, now); err != nil {
			return err
		}
	}
}

// formBatch pops the next batch in EDF order: the head plus every
// signature-compatible request that fits under MaxBatch rows, once either
// the batch is full or the head has waited out the adaptive window.
// Returns nil when the batcher prefers to keep accumulating.
func (s *Server) formBatch(q *admitQueue, now vclock.Seconds) []*pending {
	head := q.peek()
	if head == nil {
		return nil
	}
	if now < s.windowExpiry(q, now) {
		return nil
	}
	if s.cfg.BatchGraph == nil {
		// No batched-graph factory: serve the head alone at its own size.
		q.popMin()
		return []*pending{head}
	}
	return q.popBatch(head.sig, s.cfg.MaxBatch)
}

// dispatch stacks the member inputs, computes the batch's virtual timing on
// the replica's carried-over (or reset) device clocks, and hands the value
// computation to the replica's device workers.
func (s *Server) dispatch(r *replica, members []*pending, now vclock.Seconds) error {
	rows := 0
	for _, p := range members {
		rows += p.rows
	}
	be, err := s.batchEngineFor(rows)
	if err != nil {
		return err
	}
	b := newBatch(be, members, rows, r.arena)
	b.dispatch = now
	r.timeBatch(b, now, s.cfg.Pipelined)

	// Keep inflight sorted by finish (completions can reorder only through
	// the final host transfer; depth is tiny, insertion scan is fine).
	at := len(r.inflight)
	for i, ib := range r.inflight {
		if b.finish < ib.finish {
			at = i
			break
		}
	}
	r.inflight = append(r.inflight, nil)
	copy(r.inflight[at+1:], r.inflight[at:])
	r.inflight[at] = b

	for _, p := range members {
		p.resp.Dispatch = now
		p.resp.Finish = b.finish
		p.resp.Latency = b.finish - p.resp.Arrival
		p.resp.BatchRows = rows
		p.resp.Replica = r.id
	}
	s.m.recordBatch(rows)

	// Seed the device workers with the batch's dependency-free subgraphs.
	for i, n := range be.npred {
		if n == 0 {
			r.ch[be.place[i]] <- job{b: b, idx: i}
		}
	}
	return nil
}

// batchEngineFor returns (building on first use) the shared compiled
// modules and serving placement for a total batch extent of rows.
func (s *Server) batchEngineFor(rows int) (*batchEngine, error) {
	if be, ok := s.engines[rows]; ok {
		return be, nil
	}
	if s.cfg.BatchGraph == nil {
		return nil, fmt.Errorf("serve: request needs batch size %d but no BatchGraph factory is configured (base %d)", rows, s.baseRows)
	}
	be, err := newBatchEngine(s.cfg, rows, s.engines[s.baseRows])
	if err != nil {
		return nil, err
	}
	s.engines[rows] = be
	return be, nil
}

// finishBatch splits the batched outputs back per member (bit-identical
// row copies) and delivers every member response.
func (s *Server) finishBatch(b *batch, deliver func(*pending)) {
	if b.err != nil {
		for _, p := range b.members {
			p.resp.Outcome = Failed
			p.resp.Err = b.err
			deliver(p)
		}
		return
	}
	for mi, p := range b.members {
		p.resp.Outcome = OK
		p.resp.Outputs = b.memberOuts[mi]
		deliver(p)
	}
}
