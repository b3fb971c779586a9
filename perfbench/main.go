// Command perfbench is the repository's host-clock benchmark. It measures
// what a caller of the engine or of duet-node waits for in wall-clock time,
// driving the system only through the public functions of its layer
// packages and duet-node's HTTP API, and checks every output.
//
// Usage, from the repository root (perfbench/run.sh builds the benchmark
// and duet-node, then runs this):
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The seed drives every generated input. The system under test is always
// built with core.DefaultConfig(42), as duet-node builds it by default;
// only zoo-build, whose op is the build itself, uses DefaultConfig(seed).
//
// With --trace 0 a run prints the end-to-end metrics; with --trace 1 a
// separate run times each layer's public call from this package's own
// files, prints the per-layer metrics, and writes the spans as a Chrome
// trace (loadable in chrome://tracing or ui.perfetto.dev, like the
// repository's trace.json). Every metric prints as a "name value unit"
// line; the last line is one JSON object holding the metrics BENCHMARK.json
// declares, and the op counts. An op fails on an error, a non-2xx
// response, or an output that differs from the reference in any bit.
//
// # Workloads
//
// wd-infer: one full-size Wide&Deep Engine.Infer, the serial runtime.Run
// executor. Closed loop, one client; op i runs on
// workload.WideDeepInputs(cfg, seed+i mod 3). Chosen because it is the
// paper's headline model and the ROADMAP's yardstick; its time goes to
// im2col convolution in the ResNet-18 encoder, the LSTM steps and the dense
// layers, and it skips RunParallel, serve and the build stages. Layer
// metrics it should move: compiler.execute_ms, tensor.conv_gflops,
// tensor.gemv_gflops, tensor.arena_hit_ratio and tensor.packcache_hit_ratio
// move latency_p50_ms, cpu_ms_per_op and alloc_mb_per_op here;
// runtime.unattributed_ms should not move (serial executor).
//
// mtdnn-parallel: one full-size MT-DNN Engine.InferParallel, one worker per
// device over the sync queues. Closed loop, one client; inputs
// workload.MTDNNInputs(cfg, seed+i mod 3). Chosen because its multi-path
// placement runs both device workers at once, so the Gosched spin and
// the pool oversubscription show here; its kernels are M=64 GEMM and
// attention, with no convolution. Layer metrics it should move:
// runtime.unattributed_ms and runtime.overlap_ratio move latency_p50_ms
// and cpu_ms_per_op; tensor.gemm_gflops and compiler.execute_ms move
// latency_p50_ms.
//
// zoo-build (runnable, but not in BENCHMARK.json; see below): one
// core.Build of each of the seven zoo models (Wide&Deep,
// Siamese, MT-DNN, ResNet-18, VGG-16, SqueezeNet, GoogLeNet) at default
// size with DefaultConfig(seed): measured profiling, verify on, no profile
// cache, no inference. The graphs are built in set-up. Closed loop, one
// client. Chosen because partition, compile, profile, schedule and verify
// do all of its work and tensor math none, so single-compile and
// verify-pass removals show here and nowhere else. Every op must reproduce
// the first op's placements and modelled latencies. Layer metrics it
// should move: the build stages (graph.validate_ms through verify.all_ms,
// core.unattributed_ms, schedule.measure_calls) move latency_p50_ms,
// throughput_ops_per_s and alloc_mb_per_op. It is left out of
// BENCHMARK.json because on a shared 2-core host its medians moved by up to
// 2.3x between runs (81 to 188 ms per pass) while the other workloads moved
// by less than a third of that; the build stages stay measured per layer
// on every gated workload, which builds its own model.
//
// node-siamese: one POST /v1/infer of a full-size Siamese pair to
// "duet-node -model siamese", run as a child process with GOMAXPROCS=1, so
// its service time does not depend on how many cores a shared host lends
// it. Open loop: 1.5 requests/s of seeded Poisson arrivals (about a third
// of one connection's capacity at one core) from one process over at most
// nproc connections; latency runs from each request's due time and
// goodput counts responses within 500 ms of it. Chosen because it is the
// only process that takes network input: it measures JSON decode and
// encode, the admission mutex that serializes concurrent requests, and the
// serve replica executor, and its kernels are M=1 LSTM GEMVs. Layer
// metrics it should move: node.rtt_p50_ms, node.http_overhead_ms,
// serve.run_ms and tensor.gemv_gflops move latency_p50_ms, the tail
// latency and cpu_ms_per_op here and nothing elsewhere. cpu_ms_per_op and
// rss_peak_mb are the child's, read from /proc. The arrival schedule is
// fixed, so throughput_ops_per_s reads the offered rate and moves only once
// the node can no longer keep up, and goodput only once latencies near the
// limit: latency_p50_ms and cpu_ms_per_op are what gate the node.
//
// # Metrics
//
// End to end (tracing off): latency_p50_ms; the highest of latency_p90_ms,
// latency_p80_ms and latency_p70_ms that has at least ten ops beyond it;
// throughput_ops_per_s and goodput_ops_per_s; cpu_ms_per_op;
// alloc_mb_per_op (in-process workloads); rss_peak_mb; setup_s, the median
// of three set-ups, each from start to a completed warm-up op;
// virtual_p50_ms, the modelled latency, which must never move; failed_frac.
//
// Per layer (tracing on): every workload reports the stages of its
// model's core.Build (zoo-build: of its op), timed one public call at a
// time on the same graph, with core.unattributed_ms what the stages leave
// of the real core.Build; compiler.launches_per_op and gflop_per_op;
// trace.coverage, the share of op wall time the spans explain; and
// trace.overhead_frac, the spans' cost: the traced replay of the op's
// public calls (node-siamese: the requests that record spans) against the
// same calls untraced in the same run. node-siamese's coverage counts the
// in-process serve.Run median for the round trip, which spans outside the
// child cannot split.
// The inference workloads add the execution layer (runtime.timing_pass_ms,
// compiler.execute_ms and its CPU/GPU split, runtime.unattributed_ms,
// runtime.overlap_ratio, runtime.wall_over_virtual.*, transfers) and
// kernel probes (tensor.*_gflops, tensor.kernel_share, hit ratios);
// node-siamese adds the serving layer (node.*, serve.run_ms,
// serve_requests_total.*).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	small    bool // tiny models; only the self-test sets it
	nodeBin  string
	traceOut string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, *report, *tracer) error{
	"wd-infer": func(o options, r *report, tr *tracer) error {
		return runInfer(o, inferWorkload{model: wideDeepModel(o.small), limit: 3 * time.Second}, r, tr)
	},
	"mtdnn-parallel": func(o options, r *report, tr *tracer) error {
		return runInfer(o, inferWorkload{model: mtdnnModel(o.small), parallel: true, limit: 3 * time.Second}, r, tr)
	},
	"zoo-build":    runZoo,
	"node-siamese": runNode,
}

var exitHooks struct {
	sync.Mutex
	fns []func()
}

// atExit registers f to run if the benchmark is interrupted.
func atExit(f func()) {
	exitHooks.Lock()
	defer exitHooks.Unlock()
	exitHooks.fns = append(exitHooks.fns, f)
}

func main() {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: wd-infer, mtdnn-parallel, zoo-build or node-siamese")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&seconds, "seconds", 10, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&o.nodeBin, "node-bin", filepath.Join(".bench_build", "duet-node"), "duet-node binary for node-siamese")
	flag.StringVar(&o.traceOut, "trace-out", "", "Chrome trace path for --trace 1 (default .bench_build/perfbench-<workload>.trace.json)")
	flag.Parse()
	o.seconds, o.trace = time.Duration(seconds)*time.Second, trace == 1
	if o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", "perfbench-"+o.workload+".trace.json")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		exitHooks.Lock()
		for _, f := range exitHooks.fns {
			f()
		}
		os.Exit(2)
	}()

	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark run and prints its result.
func run(o options, w io.Writer) error {
	runner, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	var tr *tracer
	declared := endToEnd
	if o.trace {
		tr, declared = newTracer(), perLayer
	}
	r := newReport()
	if err := runner(o, r, tr); err != nil {
		return err
	}
	host := hostInfo()
	for k, v := range r.host {
		host[k] = v
	}
	if tr != nil {
		if err := os.MkdirAll(filepath.Dir(o.traceOut), 0o755); err != nil {
			return err
		}
		if err := tr.writeChrome(o.traceOut, host); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(w, "trace %s\n", o.traceOut)
	}
	return r.write(w, declared, host)
}
