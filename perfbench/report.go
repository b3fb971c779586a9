package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// endToEnd lists the metrics BENCHMARK.json gates, which every workload
// reports with tracing off. perLayer lists the per-layer metrics every
// workload reports with tracing on. Each workload prints further metrics
// that apply to it alone as text lines; main_test.go keeps these lists equal
// to BENCHMARK.json.
var (
	endToEnd = []string{
		"latency_p50_ms", "throughput_ops_per_s", "goodput_ops_per_s",
		"cpu_ms_per_op", "rss_peak_mb", "setup_s",
	}
	perLayer = []string{
		"graph.validate_ms", "compiler.infer_shapes_ms", "partition.build_ms",
		"runtime.new_ms", "compiler.compile_ms", "profile.records_ms",
		"schedule.correct_ms", "verify.all_ms", "core.build_ms",
		"core.unattributed_ms", "schedule.measure_calls",
		"profile.microbenchmarks", "partition.subgraphs",
		"compiler.launches_per_op", "compiler.gflop_per_op",
		"trace.coverage", "trace.overhead_frac",
	}
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics and op outcomes.
type report struct {
	metrics   map[string]metric
	order     []string
	attempted int
	failed    int
	reasons   []string          // the first few failure causes
	host      map[string]string // host metadata particular to the workload
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric; setting a name twice keeps the last value.
func (r *report) set(name, unit string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// op counts one attempted op, failed when err is non-nil.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.reasons) < 5 {
			r.reasons = append(r.reasons, err.Error())
		}
	}
}

// write prints every metric as a "name value unit" line, then the result
// object holding the declared metrics as the last line.
func (r *report) write(w io.Writer, declared []string, host map[string]string) error {
	keys := make([]string, 0, len(host))
	for k := range host {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "host.%s %q\n", k, host[k])
	}
	for _, reason := range r.reasons {
		fmt.Fprintf(w, "failure %s\n", reason)
	}
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "%s %.6g %s\n", name, m.Value, m.Unit)
	}
	out := make(map[string]metric, len(declared))
	for _, name := range declared {
		m, ok := r.metrics[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		out[name] = m
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
