package runtime

import (
	"errors"
	"fmt"
	"math"

	"duet/internal/device"
	"duet/internal/faults"
	"duet/internal/graph"
	"duet/internal/tensor"
	"duet/internal/vclock"
)

// ErrExhausted reports that fault tolerance ran out: a subgraph (or a final
// output transfer) failed on every device the policy allowed, after every
// permitted retry. The Result returned alongside it carries the timeline and
// virtual time consumed up to the point of giving up, so callers modelling
// whole-request abort-and-retry can charge the wasted work.
var ErrExhausted = errors.New("runtime: fault tolerance exhausted")

// Policy configures fault tolerance for RunWithPolicy. The zero value fails
// fast: one attempt per subgraph, no failover, breaker disabled — any
// injected failure aborts the run.
type Policy struct {
	// Injector supplies faults (nil or empty = fault-free; RunWithPolicy is
	// then equivalent to Run).
	Injector *faults.Injector
	// MaxRetries is how many times a failed subgraph is re-attempted on the
	// same device before failing over (per device; transfers get the same
	// per-value budget).
	MaxRetries int
	// Backoff is the virtual-clock pause before the first retry; it is
	// charged to the failing device like any other occupancy, on top of the
	// per-dispatch syncQueueOverhead the retry itself pays.
	Backoff vclock.Seconds
	// BackoffFactor grows the pause exponentially per retry (≤1 = 2).
	BackoffFactor float64
	// Failover migrates a subgraph that exhausted its retries to the other
	// device; the engine's tuned costs for that device already exist, so the
	// migration pays only boundary re-transfers.
	Failover bool
	// BreakerThreshold is how many consecutive failures on one device open
	// its circuit breaker, degrading the remaining placement to the
	// surviving device (0 disables the breaker).
	BreakerThreshold int
	// Probation is the open-breaker window before a probe subgraph is
	// re-admitted to the degraded device.
	Probation vclock.Seconds
	// Health, when non-nil, is a shared tracker carrying breaker state
	// across runs (a serving layer shares one per engine); nil gives each
	// run a fresh tracker.
	Health *HealthTracker
}

// DefaultPolicy returns the recommended production policy: two retries with
// 50 µs exponential backoff, failover on, breaker tripping after three
// consecutive failures with a 2 ms probation window.
func DefaultPolicy() Policy {
	return Policy{
		MaxRetries:       2,
		Backoff:          50e-6,
		BackoffFactor:    2,
		Failover:         true,
		BreakerThreshold: 3,
		Probation:        2e-3,
	}
}

// FaultReport summarises the fault-tolerance activity of one run.
type FaultReport struct {
	// KernelFaults and TransferFaults count injected failures observed.
	KernelFaults   int
	TransferFaults int
	// Retries counts subgraph re-attempts on the same device;
	// TransferRetries counts re-issued boundary transfers.
	Retries         int
	TransferRetries int
	// Failovers counts subgraphs migrated to the other device after
	// exhausting their retries.
	Failovers int
	// BreakerTrips counts circuit-breaker openings; Degraded counts
	// subgraphs redirected to the surviving device by an open breaker;
	// Readmissions counts probes that closed a breaker again.
	BreakerTrips int
	Degraded     int
	Readmissions int
	// FinalPlacement is where each subgraph actually executed.
	FinalPlacement Placement
}

// backoffAt returns the pause before retry number retry (0-based).
func (pol *Policy) backoffAt(retry int) vclock.Seconds {
	f := pol.BackoffFactor
	if f <= 1 {
		f = 2
	}
	return pol.Backoff * vclock.Seconds(math.Pow(f, float64(retry)))
}

// errTransfer marks a boundary transfer that exhausted its retry budget; it
// fails the consuming subgraph's attempt rather than the whole run.
var errTransfer = errors.New("runtime: boundary transfer failed")

// other returns the opposite device kind.
func other(k device.Kind) device.Kind {
	if k == device.CPU {
		return device.GPU
	}
	return device.CPU
}

// RunWithPolicy executes the model under the given placement with fault
// tolerance: per-subgraph bounded retries with exponential backoff charged
// to the virtual clock, failover migration of a failed subgraph to the other
// device, and a per-device circuit breaker that degrades the remaining
// placement to the surviving device — the runtime analogue of the paper's
// single-device fallback — with probation-based re-admission.
//
// A nil inputs map runs timing-only (like Run with withValues=false);
// otherwise tensor values are materialised and Result.Outputs is populated.
// Values are computed after the timing pass by Run's serial executor, once
// per subgraph on the host, so a run that retried or failed over produces
// outputs bit-identical to a fault-free run. Result.Faults summarises the
// tolerance activity, and fault/backoff intervals appear on
// Result.Timeline.
func (e *Engine) RunWithPolicy(inputs map[string]*tensor.Tensor, place Placement, pol Policy) (*Result, error) {
	res, err := e.runWithPolicy(inputs, place, pol)
	if res != nil && res.Faults != nil {
		e.m.recordPolicyReport(res.Faults)
	}
	if err != nil {
		e.m.runErrors.Inc()
		if errors.Is(err, ErrExhausted) {
			e.m.exhausted.Inc()
		}
		return res, err
	}
	e.m.policyRuns.Inc()
	e.m.policyLat.Observe(res.Latency)
	e.m.recordMemory(e.arena)
	return res, nil
}

func (e *Engine) runWithPolicy(inputs map[string]*tensor.Tensor, place Placement, pol Policy) (*Result, error) {
	if err := e.validatePlacement(place); err != nil {
		return nil, err
	}
	if inputs == nil {
		return e.timeWithPolicy(place, pol)
	}
	values, err := e.bindInputs(inputs)
	if err != nil {
		return nil, err
	}
	res, err := e.timeWithPolicy(place, pol)
	if err != nil {
		return res, err
	}
	res.Outputs, err = e.execute(values)
	return res, err
}

// timeWithPolicy walks the placement under the fault policy: the serial
// list-scheduling model of Walk, extended with failed attempts, retries,
// backoff, failover and the circuit breaker.
func (e *Engine) timeWithPolicy(place Placement, pol Policy) (*Result, error) {
	inj := pol.Injector
	if !inj.Empty() {
		inj.Install(e.Platform)
		defer inj.Uninstall(e.Platform)
	}
	health := pol.Health
	if health == nil {
		health = NewHealthTracker(pol.BreakerThreshold, pol.Probation)
	}
	health.Instrument(e.m.reg)
	rep := &FaultReport{FinalPlacement: place.Clone()}

	type avail [2]vclock.Seconds
	ready := make(map[graph.NodeID]*avail, e.Parent.Len())
	markReady := func(id graph.NodeID, kind device.Kind, t vclock.Seconds) {
		a, ok := ready[id]
		if !ok {
			a = &avail{-1, -1}
			ready[id] = a
		}
		a[kind] = t
	}
	for _, id := range e.Parent.InputIDs() {
		markReady(id, device.CPU, 0)
	}

	res := &Result{Faults: rep}
	deviceFree := [2]vclock.Seconds{0, 0}
	link := e.Platform.Link
	// xferFrom remembers where a value's failed transfer attempts left off,
	// so a subgraph retry resumes the transfer instead of rewinding time.
	xferFrom := [2]map[graph.NodeID]vclock.Seconds{{}, {}}

	// ensureOn makes value id usable on kind, retrying failed transfers
	// under the policy's budget. On exhaustion it returns the give-up time
	// with errTransfer so the consuming subgraph can fail over.
	ensureOn := func(id graph.NodeID, kind device.Kind) (vclock.Seconds, error) {
		a, ok := ready[id]
		if !ok {
			return 0, fmt.Errorf("runtime: value of node %q consumed before production", e.Parent.Node(id).Name)
		}
		if a[kind] >= 0 {
			return a[kind], nil
		}
		src := other(kind)
		if a[src] < 0 {
			return 0, fmt.Errorf("runtime: value of node %q unavailable on both devices", e.Parent.Node(id).Name)
		}
		bytes := e.Parent.DataSize(id)
		name := e.Parent.Node(id).Name
		start := a[src]
		if t := xferFrom[kind][id]; t > start {
			start = t
		}
		for retry := 0; ; retry++ {
			dur, f := link.SampleTransferTimeAt(bytes, src, kind, start)
			end := start + dur
			e.m.linkBusy.Add(dur)
			if !f.Fail {
				a[kind] = end
				res.Timeline = append(res.Timeline, Span{
					Label:  fmt.Sprintf("xfer:%s→%s:%s", src, kind, name),
					Device: link.Name,
					Start:  start,
					End:    end,
				})
				return end, nil
			}
			rep.TransferFaults++
			res.Timeline = append(res.Timeline, Span{
				Label:  fmt.Sprintf("fault:%s:xfer:%s→%s:%s", f.Cause, src, kind, name),
				Device: link.Name,
				Start:  start,
				End:    end,
			})
			if retry >= pol.MaxRetries {
				giveUp := end + pol.backoffAt(retry)
				xferFrom[kind][id] = giveUp
				return giveUp, errTransfer
			}
			rep.TransferRetries++
			start = end + pol.backoffAt(retry)
		}
	}

	// now is the run's progress time — the later of the two device clocks.
	// Availability probes use it rather than the target device's own clock,
	// which stalls while the device is being avoided.
	now := func() vclock.Seconds {
		if deviceFree[0] > deviceFree[1] {
			return deviceFree[0]
		}
		return deviceFree[1]
	}

	for i, sub := range e.subgraphs {
		kind := place[i]
		// An open breaker degrades the subgraph to the surviving device; an
		// expired probation window admits it back as a probe.
		if !health.Available(kind, now()) {
			kind = other(kind)
			rep.Degraded++
		}
		devicesTried := 0
		retry := 0
		for {
			dev := e.Platform.Device(kind)
			start := deviceFree[kind]
			failed := false
			failAt := start
			cause := ""
			for _, pid := range sub.BoundaryInputs {
				t, err := ensureOn(pid, kind)
				if errors.Is(err, errTransfer) {
					failed = true
					cause = "transfer"
					if t > failAt {
						failAt = t
					}
					continue
				}
				if err != nil {
					return res, err
				}
				if t > start {
					start = t
				}
			}
			if !failed {
				start += syncQueueOverhead
				cursor := start
				for _, c := range e.tuned[i][kind] {
					occ, f := dev.SampleKernelTimeAt(c, cursor)
					cursor += occ
					if f.Fail {
						failed = true
						cause = f.Cause
						rep.KernelFaults++
						break
					}
				}
				e.m.deviceBusy[kind].Add(cursor - start)
				if !failed {
					deviceFree[kind] = cursor
					res.Timeline = append(res.Timeline, Span{
						Label:  sub.Graph.Name + " [" + sub.Summary() + "]",
						Device: dev.Name,
						Start:  start,
						End:    cursor,
					})
					for _, pid := range sub.Outputs {
						markReady(pid, kind, cursor)
					}
					health.Success(kind)
					rep.Readmissions = health.Readmissions()
					break
				}
				// The device was occupied by the doomed attempt.
				res.Timeline = append(res.Timeline, Span{
					Label:  "fault:" + cause + ":" + sub.Graph.Name,
					Device: dev.Name,
					Start:  start,
					End:    cursor,
				})
				deviceFree[kind] = cursor
				failAt = cursor
			}
			if health.Failure(kind, failAt) {
				rep.BreakerTrips++
			}
			// Retry on the same device while budget remains and the breaker
			// has not just cut it off.
			if retry < pol.MaxRetries && health.Available(kind, failAt) {
				b := pol.backoffAt(retry)
				if cause != "transfer" && b > 0 {
					res.Timeline = append(res.Timeline, Span{
						Label:  "backoff:" + sub.Graph.Name,
						Device: dev.Name,
						Start:  deviceFree[kind],
						End:    deviceFree[kind] + b,
					})
					deviceFree[kind] += b
					e.m.deviceBusy[kind].Add(b)
				}
				retry++
				rep.Retries++
				continue
			}
			if pol.Failover && devicesTried == 0 {
				devicesTried++
				kind = other(kind)
				retry = 0
				rep.Failovers++
				continue
			}
			res.Latency = failAt
			return res, fmt.Errorf("%w: subgraph %s failed on %s after %d retries (cause: %s)",
				ErrExhausted, sub.Graph.Name, dev.Name, retry, cause)
		}
		rep.FinalPlacement[i] = kind
	}

	// Results return to the host, with the same transfer-retry budget.
	finish := vclock.Seconds(0)
	for _, o := range e.Parent.Outputs() {
		t, err := ensureOn(o, device.CPU)
		if errors.Is(err, errTransfer) {
			res.Latency = t
			return res, fmt.Errorf("%w: output %q could not reach the host", ErrExhausted, e.Parent.Node(o).Name)
		}
		if err != nil {
			return res, err
		}
		if t > finish {
			finish = t
		}
	}
	res.Latency = finish
	return res, nil
}

// MeasureWithPolicy samples end-to-end latency under the fault policy. Runs
// that exhaust fault tolerance propagate their error; the injector's RNG
// stream advances across runs, so the sequence of samples is reproducible
// from the injector seed but individual runs differ.
func (e *Engine) MeasureWithPolicy(place Placement, pol Policy, runs int) ([]vclock.Seconds, error) {
	return sampleLatency(runs, func() (*Result, error) { return e.RunWithPolicy(nil, place, pol) })
}
