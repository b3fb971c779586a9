package main

import (
	"fmt"
	"math"
	"time"
)

const (
	// setupReps is how many times each workload sets up; setup_s is the
	// median and the last set-up serves the run.
	setupReps = 3
	// minOps is the fewest ops a run times, however short --seconds is.
	minOps = 3
)

// closedLoop accounts one client's back-to-back ops: wall time, CPU and
// allocation of this process from the first op to the last.
type closedLoop struct {
	start  time.Time
	cpu0   time.Duration
	alloc0 float64
}

func startLoop() *closedLoop {
	return &closedLoop{cpu0: cpuSelf(), alloc0: totalAllocMB(), start: time.Now()}
}

// more reports whether op i should run: at least minOps ops, then until d
// has passed.
func (l *closedLoop) more(i int, d time.Duration) bool {
	return i < minOps || time.Since(l.start) < d
}

// finish reports the loop's end-to-end metrics from its per-op latencies
// (ms) and its count of ops that succeeded within the latency limit.
func (l *closedLoop) finish(r *report, lats []float64, good int) error {
	elapsed := time.Since(l.start)
	cpu, alloc := cpuSelf()-l.cpu0, totalAllocMB()-l.alloc0
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	recordLatency(r, lats, good, elapsed)
	n := float64(len(lats))
	r.set("cpu_ms_per_op", "ms", ms(cpu)/n)
	r.set("alloc_mb_per_op", "MB", alloc/n)
	r.set("rss_peak_mb", "MB", rss)
	return nil
}

// recordLatency reports the latency distribution and the completion rates
// over elapsed. The tail reported is the highest of p90, p80 and p70 that
// has at least ten samples beyond it.
func recordLatency(r *report, lats []float64, good int, elapsed time.Duration) {
	n := float64(len(lats))
	r.set("ops", "count", n)
	r.set("latency_p50_ms", "ms", median(lats))
	for _, q := range []int{90, 80, 70} {
		if len(lats)-int(math.Ceil(float64(q*len(lats))/100)) >= 10 {
			r.set(fmt.Sprintf("latency_p%d_ms", q), "ms", percentile(lats, float64(q)/100))
			break
		}
	}
	r.set("throughput_ops_per_s", "1/s", float64(r.attempted-r.failed)/elapsed.Seconds())
	r.set("goodput_ops_per_s", "1/s", float64(good)/elapsed.Seconds())
	r.set("failed_frac", "ratio", float64(r.failed)/float64(r.attempted))
}
