package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"duet/internal/compiler"
	"duet/internal/core"
	"duet/internal/graph"
	"duet/internal/models"
	"duet/internal/obs"
	"duet/internal/partition"
	"duet/internal/serve"
	"duet/internal/tensor"
)

const (
	// nodeProcs is the child's GOMAXPROCS. With one the node's service time
	// no longer depends on whether a shared host gives it one core or two
	// (about 230 or 110 ms a request at GOMAXPROCS 2, flipping between
	// runs); the other workloads cover parallel kernels.
	nodeProcs = 1
	// nodeRate is node-siamese's offered load in requests per second: about
	// a third of what one connection sustains at nodeProcs (about 230 ms a
	// request), so most requests find the node idle and the median latency
	// is a service time. At 2.5/s, half the capacity, the median fell on
	// the edge of queueing and spread by 0.19 of itself across seeds.
	nodeRate = 1.5
	// nodeLimit is node-siamese's latency limit for goodput, measured from
	// each request's due time.
	nodeLimit = 500 * time.Millisecond
	// nodePool is how many distinct seeded input pairs the requests cycle
	// through, each checked against its own reference.
	nodePool = 8
	// nodeSetupReps is how many children set-up starts. A start takes a
	// few hundred milliseconds, so a median of five is cheap and steadier
	// than setupReps.
	nodeSetupReps = 5
)

// nodeProc is a duet-node child process.
type nodeProc struct {
	cmd  *exec.Cmd
	log  *syncBuffer
	url  string
	done chan struct{} // closed once the child has been waited for
}

// syncBuffer collects the child's output while it runs.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// freeAddr returns a loopback address with a port the kernel just
// reported free.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startNode starts duet-node serving Siamese with GOMAXPROCS nodeProcs and
// waits until /healthz
// answers. The child is killed on every exit path: by stop, by the exit
// hook if the benchmark is interrupted, and by the kernel if the benchmark
// dies first.
func startNode(bin string, small bool) (*nodeProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	args := []string{"-model", "siamese", "-addr", addr, "-seed", strconv.Itoa(systemSeed)}
	if small {
		args = append(args, "-small")
	}
	p := &nodeProc{cmd: exec.Command(bin, args...), log: &syncBuffer{}, url: "http://" + addr, done: make(chan struct{})}
	p.cmd.Stdout, p.cmd.Stderr = p.log, p.log
	p.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(nodeProcs))
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		_ = p.cmd.Wait() // the exit status is expected to be a kill
		close(p.done)
	}()
	atExit(p.stop)
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(p.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case <-p.done:
			return nil, p.fail(fmt.Errorf("duet-node exited before becoming healthy"))
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, p.fail(fmt.Errorf("duet-node not healthy after 2 minutes"))
		}
	}
}

// stop kills the child and waits until it has exited. It is safe to call
// more than once.
func (p *nodeProc) stop() {
	_ = p.cmd.Process.Kill() // fails only if the child already exited
	<-p.done
}

// fail attaches the child's output to err.
func (p *nodeProc) fail(err error) error {
	return fmt.Errorf("%w\n--- duet-node output ---\n%s", err, p.log.String())
}

type wireTensor struct {
	Shape []int     `json:"shape"`
	Data  []float32 `json:"data"`
}

type wireResponse struct {
	Outcome   string       `json:"outcome"`
	Error     string       `json:"error"`
	LatencyMS float64      `json:"latency_virtual_ms"`
	Outputs   []wireTensor `json:"outputs"`
}

// encodeRequest renders inputs as a /v1/infer body.
func encodeRequest(inputs map[string]*tensor.Tensor) ([]byte, error) {
	wire := map[string]wireTensor{}
	for name, t := range inputs {
		wire[name] = wireTensor{Shape: t.Shape(), Data: t.Data()}
	}
	return json.Marshal(map[string]any{"inputs": wire})
}

// nodeResult is one request as the generator saw it.
type nodeResult struct {
	due, woke, sent, done time.Time
	reqBytes, respBytes   int
	virtualMS             float64
	err                   error
}

// post sends one request and checks the response bit for bit against want.
func post(client *http.Client, url string, body []byte, want []*tensor.Tensor, res *nodeResult) {
	resp, err := client.Post(url+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		res.done, res.err = time.Now(), err
		return
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.done, res.respBytes = time.Now(), len(b)
	if err != nil {
		res.err = err
		return
	}
	if resp.StatusCode/100 != 2 {
		res.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
		return
	}
	var wr wireResponse
	if err := json.Unmarshal(b, &wr); err != nil {
		res.err = fmt.Errorf("decoding response: %w", err)
		return
	}
	res.virtualMS = wr.LatencyMS
	if wr.Outcome != string(serve.OK) {
		res.err = fmt.Errorf("outcome %s: %s", wr.Outcome, wr.Error)
		return
	}
	if len(wr.Outputs) != len(want) {
		res.err = fmt.Errorf("%d outputs, want %d", len(wr.Outputs), len(want))
		return
	}
	for i, o := range wr.Outputs {
		if !tensor.ShapeEq(o.Shape, want[i].Shape()) {
			res.err = fmt.Errorf("output %d has shape %v, want %v", i, o.Shape, want[i].Shape())
			return
		}
		if err := sameData(o.Data, want[i].Data()); err != nil {
			res.err = fmt.Errorf("output %d: %w", i, err)
			return
		}
	}
}

// requestCounts reads serve_requests_total by outcome from /metrics.
func requestCounts(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	counts := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), `serve_requests_total{outcome="`)
		if !ok {
			continue
		}
		outcome, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", sc.Text(), err)
		}
		counts[outcome] = v
	}
	return counts, sc.Err()
}

// arrivals returns n seeded arrival offsets in [0, d): a Poisson process
// at rate n/d conditioned on its count, whose arrival times are sorted
// uniform draws. Fixing the count keeps every run's offered load equal.
func arrivals(seed int64, n int, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(d))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// runNode is the node-siamese workload.
func runNode(o options, r *report, tr *tracer) error {
	m := siameseModel(o.small)
	pool := make([]map[string]*tensor.Tensor, nodePool)
	bodies := make([][]byte, nodePool)
	for i := range pool {
		pool[i] = m.inputs(o.seed + int64(i))
		var err error
		if bodies[i], err = encodeRequest(pool[i]); err != nil {
			return err
		}
	}
	g, err := m.graph()
	if err != nil {
		return err
	}
	if err := compiler.InferShapes(g); err != nil {
		return err
	}
	part, err := partition.Build(g)
	if err != nil {
		return err
	}
	ref, err := referenceEngine(part, compiler.DefaultOptions())
	if err != nil {
		return fmt.Errorf("compiling reference: %w", err)
	}
	refs := make([][]*tensor.Tensor, len(pool))
	for i, in := range pool {
		if refs[i], err = referenceOutputs(ref, in); err != nil {
			return fmt.Errorf("reference outputs: %w", err)
		}
	}

	// Set-up runs from child start through a healthy /healthz and one
	// warm-up request; the last child serves the run.
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: goruntime.NumCPU(), MaxIdleConnsPerHost: goruntime.NumCPU()},
		Timeout:   time.Minute,
	}
	defer client.CloseIdleConnections()
	var node *nodeProc
	var setups []float64
	for rep := 0; rep < nodeSetupReps; rep++ {
		if node != nil {
			node.stop()
		}
		t0 := time.Now()
		if node, err = startNode(o.nodeBin, o.small); err != nil {
			return err
		}
		var warm nodeResult
		post(client, node.url, bodies[0], refs[0], &warm)
		if warm.err != nil {
			node.stop()
			return node.fail(fmt.Errorf("warm-up request: %w", warm.err))
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer node.stop()
	r.set("setup_s", "s", median(setups))
	r.host = map[string]string{"node.gomaxprocs": strconv.Itoa(nodeProcs)}

	pid := node.cmd.Process.Pid
	cpu0, err := cpuProc(pid)
	if err != nil {
		return err
	}
	counts0, err := requestCounts(node.url)
	if err != nil {
		return node.fail(fmt.Errorf("reading /metrics: %w", err))
	}
	results := openLoop(o, client, node.url, bodies, refs, tr)
	cpu1, err := cpuProc(pid)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(pid)
	if err != nil {
		return err
	}
	counts1, err := requestCounts(node.url)
	if err != nil {
		return node.fail(fmt.Errorf("reading /metrics: %w", err))
	}

	start := results[0].due
	var lats, rtts, lags, virt []float64
	var late, last time.Duration
	var reqBytes, respBytes float64
	good := 0
	for i := range results {
		res := &results[i]
		r.op(res.err)
		lat := res.done.Sub(res.due)
		lats = append(lats, ms(lat))
		rtts = append(rtts, ms(res.done.Sub(res.sent)))
		lags = append(lags, ms(res.sent.Sub(res.due)))
		late = max(late, res.woke.Sub(res.due))
		last = max(last, res.done.Sub(start))
		reqBytes += float64(res.reqBytes)
		respBytes += float64(res.respBytes)
		if res.err == nil {
			virt = append(virt, res.virtualMS)
			if lat <= nodeLimit {
				good++
			}
		}
	}
	if r.failed > 0 {
		// Keep the child's own account of what went wrong in the result.
		r.reasons = append(r.reasons, node.fail(fmt.Errorf("%d failed requests", r.failed)).Error())
	}
	n := float64(len(results))
	recordLatency(r, lats, good, last)
	r.set("cpu_ms_per_op", "ms", ms(cpu1-cpu0)/n)
	r.set("rss_peak_mb", "MB", rss)
	if len(virt) > 0 {
		r.set("virtual_p50_ms", "ms", median(virt))
	}
	r.set("node.rtt_p50_ms", "ms", median(rtts))
	r.set("node.send_lag_p90_ms", "ms", percentile(lags, 0.9))
	r.set("node.generator_late_max_ms", "ms", ms(late))
	r.set("node.request_kb", "KiB", reqBytes/n/1024)
	r.set("node.response_kb", "KiB", respBytes/n/1024)
	for outcome, v := range counts1 {
		r.set("serve_requests_total."+outcome, "count", v-counts0[outcome])
	}
	if tr == nil {
		return nil
	}
	return traceNode(o, r, tr, results, pool, refs)
}

// openLoop sends the seeded arrivals from one goroutine, at most nproc
// requests in flight over as many connections, and returns every
// request's times. Latency runs from each request's due time, so a stall
// charges the wait to every request queued behind it. With a tracer, every
// odd-numbered request records its client-side spans as it runs; the
// others are the untraced baseline for trace.overhead_frac.
func openLoop(o options, client *http.Client, url string, bodies [][]byte, refs [][]*tensor.Tensor, tr *tracer) []nodeResult {
	n := max(int(math.Round(nodeRate*o.seconds.Seconds())), minOps)
	offsets := arrivals(o.seed, n, o.seconds)
	results := make([]nodeResult, n)
	slots := make(chan struct{}, goruntime.NumCPU()) // one per connection
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range offsets {
		res := &results[i]
		res.due = start.Add(off)
		time.Sleep(time.Until(res.due))
		res.woke = time.Now()
		slots <- struct{}{}
		res.sent = time.Now()
		res.reqBytes = len(bodies[i%len(bodies)])
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := tr
			if i%2 == 0 {
				t = nil
			}
			root := t.record("node.op", 0, i, 1, res.due, res.due, nil)
			t.record("node.send_lag", root, i, 1, res.due, res.sent, nil)
			rtt := t.begin("node.rtt", root, i, 1)
			post(client, url, bodies[i%len(bodies)], refs[i%len(refs)], res)
			t.end(rtt, map[string]any{"request_bytes": res.reqBytes, "response_bytes": res.respBytes})
			t.end(root, nil)
			<-slots
		}(i)
	}
	wg.Wait()
	return results
}

// traceNode reports the client-side spans the open loop recorded, then
// times the layers below HTTP in process, at the child's GOMAXPROCS:
// serve.Server.Run of one request on a server configured as duet-node
// configures it, the engine's subgraph executes, the kernels they call,
// and the model's build.
func traceNode(o options, r *report, tr *tracer, results []nodeResult, pool []map[string]*tensor.Tensor, refs [][]*tensor.Tensor) error {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(nodeProcs))
	m := siameseModel(o.small)
	g, err := m.graph()
	if err != nil {
		return err
	}
	e, err := core.Build(g, core.DefaultConfig(systemSeed))
	if err != nil {
		return err
	}
	cfg := siameseConfig(o.small)
	srv, err := serve.New(serve.Config{
		Engine: e,
		BatchGraph: func(b int) (*graph.Graph, error) {
			c := cfg
			c.Batch = b
			return models.Siamese(c)
		},
		Replicas: 1, QueueCap: 256, MaxBatch: 1, Window: 0.002, Pipelined: true,
		Seed: systemSeed, Registry: obs.NewRegistry(),
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	var runs []float64
	for k := 0; k < 2*len(pool); k++ {
		id := tr.begin("serve.run", 0, -1, 0)
		_, resps, err := srv.Run([]serve.Request{{ID: k, Inputs: pool[k%len(pool)]}})
		runs = append(runs, ms(tr.end(id, nil)))
		if err == nil && resps[0].Outcome != serve.OK {
			err = fmt.Errorf("in-process serve outcome %s: %v", resps[0].Outcome, resps[0].Err)
		}
		if err == nil {
			err = sameBits(resps[0].Outputs, refs[k%len(pool)])
		}
		if err != nil {
			return fmt.Errorf("serve.Run: %w", err)
		}
	}
	serveMS := median(runs)
	rtt := r.metrics["node.rtt_p50_ms"].Value
	r.set("serve.run_ms", "ms", serveMS)
	r.set("node.http_overhead_ms", "ms", rtt-serveMS)

	// Spans outside the child cannot split its time, so coverage counts
	// the send lag and, for the round trip, the in-process serve.Run
	// median: an estimate from another execution of the same request.
	var plain, traced, cover []float64
	for i := range results {
		res := &results[i]
		lat := ms(res.done.Sub(res.due))
		if i%2 == 0 {
			plain = append(plain, lat)
			continue
		}
		traced = append(traced, lat)
		cover = append(cover, (ms(res.sent.Sub(res.due))+serveMS)/lat)
	}
	r.set("trace.coverage", "ratio", median(cover))
	r.set("trace.overhead_frac", "ratio", median(traced)/median(plain)-1)

	// The first replay packs the fresh engine's weights; it is not timed.
	var execs []float64
	for k := -1; k < 3; k++ {
		var total time.Duration
		_, err := execute(e.Runtime, pool[(k+1)%len(pool)], func(j int, in map[string]*tensor.Tensor) ([]*tensor.Tensor, error) {
			id := tr.begin("compiler.execute", 0, -1, 0)
			outs, err := e.Runtime.Module(j).ExecuteArena(in, e.Runtime.Arena())
			total += tr.end(id, nil)
			return outs, err
		}, e.Runtime.Arena())
		if err != nil {
			return err
		}
		if k >= 0 {
			execs = append(execs, ms(total))
		}
	}
	r.set("compiler.execute_ms", "ms", median(execs))
	modules := make([]*compiler.Module, e.Runtime.NumSubgraphs())
	for j := range modules {
		modules[j] = e.Runtime.Module(j)
	}
	if err := probeKernels(r, tr, modules, median(execs)); err != nil {
		return err
	}
	return traceModelBuilds(r, tr, m)
}
