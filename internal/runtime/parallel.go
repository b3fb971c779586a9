package runtime

import (
	"fmt"
	"sync"

	"duet/internal/device"
	"duet/internal/queue"
	"duet/internal/tensor"
)

// RunParallel executes the placement with real host concurrency: one worker
// goroutine per device consumes subgraph jobs from its synchronization
// queue as dependencies resolve and executes their tensor math — the
// paper's two-process executor architecture (§IV-D, Fig. 9). Outputs are
// identical to Run's; reported virtual time comes from the same
// deterministic timing pass (host wall-clock parallelism does not affect
// the modelled latency, it just computes values faster on multi-core
// hosts).
func (e *Engine) RunParallel(inputs map[string]*tensor.Tensor, place Placement) (*Result, error) {
	timing, err := e.Run(nil, place, false)
	if err != nil {
		return nil, err
	}

	values, err := e.bindInputs(inputs)
	if err != nil {
		return nil, err
	}
	n := len(e.subgraphs)

	// pending[i] counts subgraph i's unresolved producers; dependents[p]
	// lists the consumers of p's outputs.
	dependents, pending := e.SyncSkeleton()

	// One shared-memory synchronization queue per device worker (§IV-D:
	// "the synchronization queue is implemented as a shared memory queue
	// for high efficiency"). The paper's executor polls its queue in a busy
	// loop; here that dispatch cost is charged on the virtual clock by the
	// timing pass, not burned on the host. A worker that finds its queue
	// empty blocks on its device's doorbell: a one-slot channel signalled
	// without blocking after every push and closed once all jobs are done,
	// so a push between an empty Pop and the wait is never missed.
	queues := [2]*queue.Queue{queue.New(n + 1), queue.New(n + 1)}
	bells := [2]chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
	if e.m.reg != nil {
		queues[device.CPU].Instrument(e.m.reg, e.Platform.Device(device.CPU).Name)
		queues[device.GPU].Instrument(e.m.reg, e.Platform.Device(device.GPU).Name)
	}
	var mu sync.Mutex // guards values and pending
	var wg sync.WaitGroup
	wg.Add(n)
	errCh := make(chan error, n)

	enqueue := func(i int) {
		queues[place[i]].MustPush(i)
		select {
		case bells[place[i]] <- struct{}{}:
		default: // a wake-up is already pending
		}
	}

	worker := func(kind device.Kind) {
		for {
			i, ok, done := queues[kind].Pop()
			if done {
				return
			}
			if !ok {
				<-bells[kind]
				continue
			}
			sub := e.subgraphs[i]
			mu.Lock()
			subIn := make(map[string]*tensor.Tensor, len(sub.BoundaryInputs))
			for _, pid := range sub.BoundaryInputs {
				subIn["in."+e.Parent.Node(pid).Name] = values[pid]
			}
			mu.Unlock()
			outs, err := e.modules[i].ExecuteArena(subIn, e.arena)
			if err != nil {
				// Record the failure but keep the pipeline draining:
				// dependents receive zero placeholders so every queued job
				// completes and Wait cannot deadlock. The error is returned
				// after the drain.
				errCh <- fmt.Errorf("runtime: executing %s: %w", sub.Graph.Name, err)
				outs = make([]*tensor.Tensor, len(sub.Outputs))
				for oi, pid := range sub.Outputs {
					outs[oi] = tensor.New(e.Parent.Node(pid).Shape...)
				}
			}
			mu.Lock()
			for oi, pid := range sub.Outputs {
				values[pid] = outs[oi]
			}
			var nowReady []int
			for _, c := range dependents[i] {
				pending[c]--
				if pending[c] == 0 {
					nowReady = append(nowReady, c)
				}
			}
			mu.Unlock()
			for _, c := range nowReady {
				enqueue(c)
			}
			wg.Done()
		}
	}
	// Seed the queues before the workers start so the initial pending reads
	// race with nothing (queues are buffered to n, so this cannot block).
	for i := 0; i < n; i++ {
		if pending[i] == 0 {
			enqueue(i)
		}
	}
	var workers sync.WaitGroup
	workers.Add(2)
	for _, kind := range []device.Kind{device.CPU, device.GPU} {
		go func() {
			defer workers.Done()
			worker(kind)
		}()
	}
	wg.Wait()
	queues[device.CPU].Close()
	queues[device.GPU].Close()
	// Every push happened before its worker's wg.Done, so no send can race
	// these closes; closing wakes the idle workers to observe done and exit.
	close(bells[device.CPU])
	close(bells[device.GPU])
	workers.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}

	res := &Result{Latency: timing.Latency, Timeline: timing.Timeline}
	for _, o := range e.Parent.Outputs() {
		v, ok := values[o]
		if !ok {
			return nil, fmt.Errorf("runtime: output %q never produced", e.Parent.Node(o).Name)
		}
		res.Outputs = append(res.Outputs, v)
	}
	return res, nil
}
