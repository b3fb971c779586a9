package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	var e2e, layer, names []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name)
	}
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"end_to_end", endToEnd, e2e},
		{"per_layer", perLayer, layer},
	} {
		if strings.Join(c.got, ",") != strings.Join(c.want, ",") {
			t.Errorf("%s: program has %v, BENCHMARK.json has %v", c.what, c.got, c.want)
		}
	}
	for _, name := range names {
		if workloads[name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no runner", name)
		}
	}
}

// buildNode compiles duet-node for node-siamese.
func buildNode(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "duet-node")
	cmd := exec.Command("go", "build", "-o", bin, "duet/cmd/duet-node")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building duet-node: %v\n%s", err, out)
	}
	return bin
}

// TestWorkloadsSmall runs every workload, gated in BENCHMARK.json or not,
// on tiny models, traced and untraced, and checks the output contract: every metric prints as a
// "name value unit" line, the declared metrics reach the result object
// with BENCHMARK.json's units, no op fails, and the trace file parses.
func TestWorkloadsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	units := map[string]string{}
	for _, m := range spec.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		units[m.Name] = m.Unit
	}
	nodeBin := buildNode(t)
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			t.Run(name+"/trace="+strconv.FormatBool(trace), func(t *testing.T) {
				o := options{
					workload: name, seed: 3, seconds: 300 * time.Millisecond, trace: trace, small: true,
					nodeBin: nodeBin, traceOut: filepath.Join(t.TempDir(), "trace.json"),
				}
				var out bytes.Buffer
				if err := run(o, &out); err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				checkOutput(t, name, out.String(), trace, units)
				if trace {
					checkTrace(t, o.traceOut)
				}
			})
		}
	}
}

// workloadMetrics are the metrics a workload prints beyond the declared
// ones, untraced and traced.
var workloadMetrics = map[string][2][]string{
	"wd-infer": {
		{"alloc_mb_per_op", "virtual_p50_ms", "failed_frac"},
		{"runtime.timing_pass_ms", "compiler.execute_ms", "compiler.execute_cpu_ms", "compiler.execute_gpu_ms",
			"runtime.unattributed_ms", "runtime.overlap_ratio", "runtime.transfers_per_op", "runtime.transfer_mb_per_op",
			"tensor.conv_gflops", "tensor.kernel_share", "tensor.arena_hit_ratio", "tensor.packcache_hit_ratio"},
	},
	"mtdnn-parallel": {
		{"alloc_mb_per_op", "virtual_p50_ms", "failed_frac"},
		{"runtime.timing_pass_ms", "compiler.execute_ms", "compiler.execute_cpu_ms", "compiler.execute_gpu_ms",
			"runtime.unattributed_ms", "runtime.overlap_ratio", "runtime.transfers_per_op", "runtime.transfer_mb_per_op",
			"tensor.gemm_gflops", "tensor.kernel_share", "tensor.arena_hit_ratio", "tensor.packcache_hit_ratio"},
	},
	"zoo-build": {{"alloc_mb_per_op", "failed_frac"}, nil},
	"node-siamese": {
		{"virtual_p50_ms", "failed_frac", "node.rtt_p50_ms", "node.send_lag_p90_ms", "node.generator_late_max_ms",
			"node.request_kb", "node.response_kb", "serve_requests_total.ok"},
		{"serve.run_ms", "node.http_overhead_ms", "compiler.execute_ms", "tensor.gemv_gflops", "tensor.kernel_share"},
	},
}

func checkOutput(t *testing.T, workload, out string, trace bool, units map[string]string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
	}
	printed := map[string]string{} // name -> unit
	values := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			printed[f[0]], values[f[0]] = f[2], v
		}
	}
	declared := endToEnd
	if trace {
		declared = perLayer
	}
	if len(res.Metrics) != len(declared) {
		t.Errorf("result object has %d metrics, want %d", len(res.Metrics), len(declared))
	}
	for _, name := range declared {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("result object lacks %s", name)
			continue
		}
		if m.Unit != units[name] || printed[name] != units[name] {
			t.Errorf("%s: result unit %q, printed unit %q, BENCHMARK.json unit %q", name, m.Unit, printed[name], units[name])
		}
	}
	extra := workloadMetrics[workload][0]
	if trace {
		extra = workloadMetrics[workload][1]
	}
	for _, name := range extra {
		if _, ok := printed[name]; !ok {
			t.Errorf("%s not printed", name)
		}
	}
	if !trace {
		if _, ok := values["failed_frac"]; !ok || values["failed_frac"] != 0 {
			t.Errorf("failed_frac printed as %v (present %v), want 0", values["failed_frac"], ok)
		}
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Dur   float64        `json:"dur"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	for _, ev := range doc.TraceEvents {
		if ev.Phase != "X" || ev.Dur < 0 {
			t.Fatalf("bad event %+v", ev)
		}
		if _, ok := ev.Args["self_ms"]; !ok {
			t.Fatalf("event %s lacks its self time", ev.Name)
		}
	}
	if doc.OtherData["host.gomaxprocs"] == "" {
		t.Error("trace lacks host metadata")
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(d time.Duration) time.Time { return tr.t0.Add(d) }
	root := tr.record("root", 0, 0, 0, at(0), at(100), nil)
	tr.record("a", root, 0, 0, at(10), at(40), nil)
	tr.record("b", root, 0, 0, at(30), at(60), nil) // overlaps a by 10
	self := tr.selfByName()
	if self["root"] != ms(50) || self["a"] != ms(30) || self["b"] != ms(30) {
		t.Errorf("self times %v, want root=50ns a=30ns b=30ns", self)
	}
}
