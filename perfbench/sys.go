package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat. Linux fixes it at 100 on every mainstream architecture.
const clockTicks = 100

// cpuSelf returns the user+system CPU time this process has consumed.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuProc returns the user+system CPU time process pid has consumed, read
// from /proc (10 ms resolution).
func cpuProc(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; the fields after it start at the
	// last ')'. utime and stime are fields 14 and 15 of the whole line.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSSMB reads VmHWM, the peak resident set of process pid (0 = self),
// in MiB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// settleMemory returns set-up garbage to the OS and restarts this process's
// peak-RSS counter, so rss_peak_mb covers the measured loop and not the
// references and discarded engines built before it. Writing 5 to
// clear_refs resets VmHWM to the current RSS.
func settleMemory() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// totalAllocMB returns the bytes this process has ever allocated, in MiB.
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median returns the middle value of xs (the mean of the two middle values
// for even lengths). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (q in (0, 1]).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	r := int(math.Ceil(q*float64(len(s)))) - 1
	if r < 0 {
		r = 0
	}
	return s[r]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// hostInfo records what a host-clock number depends on: the scheduler's
// parallelism, the CPU, the toolchain and the source revision, which
// run.sh passes in PERFBENCH_COMMIT ("unknown" when it is unset).
func hostInfo() map[string]string {
	info := map[string]string{
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     "unknown",
	}
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		info["commit"] = c
	}
	return info
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
