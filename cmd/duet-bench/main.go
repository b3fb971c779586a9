// Command duet-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	duet-bench                  # run every experiment at paper scale
//	duet-bench -exp fig11       # run one experiment
//	duet-bench -quick           # reduced run counts (smoke test)
//	duet-bench -list            # list experiment IDs
//	duet-bench -runs 1000       # override the sample count
//	duet-bench -quick -serve BENCH_serve.json   # serving-layer benchmark
//	duet-bench -serve s.json -serve-qps 300 -serve-deadline-ms 50
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"duet/internal/benchdiff"
	"duet/internal/experiments"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment ID to run (default: all)")
		quick     = flag.Bool("quick", false, "reduced run counts for a fast smoke pass")
		list      = flag.Bool("list", false, "list available experiments")
		runs      = flag.Int("runs", 0, "override latency sample count")
		seed      = flag.Int64("seed", 42, "noise/workload seed")
		jsonPath  = flag.String("json", "", "write a machine-readable report of the quantitative experiments to this file")
		obsPath   = flag.String("obs", "", "write the observability report (metrics snapshot + scheduler audit) to this file")
		kernPath  = flag.String("kernels", "", "write the tensor-kernel benchmark matrix (packed/blocked × pool/serial) to this file")
		servePath = flag.String("serve", "", "write the serving benchmark (serial vs unbatched vs batched vs pipelined) to this file")
		clusPath  = flag.String("cluster", "", "write the cluster fault-tolerance benchmark (fault-free vs chaos schedule) to this file")
		schedPath = flag.String("sched", "", "write the cost-model/search benchmark (measured vs predicted vs hybrid profiling, greedy vs wide search) to this file")

		clusNodes = flag.Int("cluster-nodes", 0, "cluster benchmark: serving-node count (0 = default 3)")
		clusReqs  = flag.Int("cluster-requests", 0, "cluster benchmark: request-stream length (0 = default 24)")
		clusQPS   = flag.Float64("cluster-qps", 0, "cluster benchmark: Poisson offered load (0 = burst)")
		clusLoss  = flag.Float64("cluster-loss", -1, "cluster benchmark: per-message loss probability (-1 = default 0.05)")

		serveReqs     = flag.Int("serve-requests", 0, "serving benchmark: requests per mode and load pattern (0 = default 48)")
		serveQPS      = flag.Float64("serve-qps", 0, "serving benchmark: Poisson offered load (0 = auto, 1.2x the serial rate)")
		serveDeadline = flag.Float64("serve-deadline-ms", 0, "serving benchmark: per-request SLA in virtual ms (0 = none)")
		serveReplicas = flag.Int("serve-replicas", 1, "serving benchmark: engine replica count")
		serveBatch    = flag.Int("serve-batch", 0, "serving benchmark: micro-batch row cap for the batched modes (0 = default 8)")
		serveWindow   = flag.Float64("serve-window-ms", 0, "serving benchmark: micro-batch accumulation window in virtual ms (0 = default 2)")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-7s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	cfg.Seed = *seed
	if *runs > 0 {
		cfg.Runs = *runs
	}

	// Suite baselines (BENCH_*.json) go through benchdiff so every
	// regeneration appends to the file's bounded run-history section; the
	// wall-clock stamp lives here in the cmd layer, outside the
	// virtual-clock core.
	writeSuite := func(suiteName, path string, report any) {
		s, ok := benchdiff.SuiteByName(suiteName)
		if !ok {
			fmt.Fprintf(os.Stderr, "duet-bench: no benchdiff suite %q\n", suiteName)
			os.Exit(1)
		}
		label := "paper"
		if *quick {
			label = "quick"
		}
		if err := benchdiff.WriteBaseline(s, path, report, time.Now().Unix(), label); err != nil {
			fmt.Fprintf(os.Stderr, "duet-bench: %v\n", err)
			os.Exit(1)
		}
	}

	if *kernPath != "" {
		report, err := experiments.BuildKernelsReport(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "duet-bench: kernels report: %v\n", err)
			os.Exit(1)
		}
		writeSuite("kernels", *kernPath, report)
		fmt.Printf("wrote kernel benchmarks to %s\n", *kernPath)
		return
	}

	if *schedPath != "" {
		report, err := experiments.BuildSchedReport(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "duet-bench: sched report: %v\n", err)
			os.Exit(1)
		}
		writeSuite("sched", *schedPath, report)
		fmt.Printf("wrote cost-model/search report to %s\n", *schedPath)
		return
	}

	if *clusPath != "" {
		load := experiments.DefaultClusterLoad()
		if *clusNodes > 0 {
			load.Nodes = *clusNodes
		}
		if *clusReqs > 0 {
			load.Requests = *clusReqs
		}
		load.QPS = *clusQPS
		if *clusLoss >= 0 {
			load.LossProb = *clusLoss
		}
		report, err := experiments.BuildClusterReport(cfg, load)
		if err != nil {
			fmt.Fprintf(os.Stderr, "duet-bench: cluster report: %v\n", err)
			os.Exit(1)
		}
		writeSuite("cluster", *clusPath, report)
		fmt.Println(report)
		fmt.Printf("wrote cluster report to %s\n", *clusPath)
		return
	}

	if *servePath != "" {
		load := experiments.DefaultServeLoad()
		if *serveReqs > 0 {
			load.Requests = *serveReqs
		}
		load.QPS = *serveQPS
		load.Deadline = *serveDeadline / 1e3
		load.Replicas = *serveReplicas
		if *serveBatch > 0 {
			load.MaxBatch = *serveBatch
		}
		if *serveWindow > 0 {
			load.Window = *serveWindow / 1e3
		}
		report, err := experiments.BuildServeReport(cfg, load)
		if err != nil {
			fmt.Fprintf(os.Stderr, "duet-bench: serve report: %v\n", err)
			os.Exit(1)
		}
		writeSuite("serve", *servePath, report)
		fmt.Println(report)
		fmt.Printf("wrote serve report to %s\n", *servePath)
		return
	}

	if *obsPath != "" {
		report, err := experiments.BuildObsReport(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "duet-bench: obs report: %v\n", err)
			os.Exit(1)
		}
		writeSuite("obs", *obsPath, report)
		fmt.Printf("wrote obs report to %s\n", *obsPath)
		return
	}

	if *jsonPath != "" {
		report, err := experiments.BuildReport(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "duet-bench: report: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "duet-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := report.WriteJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "duet-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote report to %s\n", *jsonPath)
		return
	}

	run := func(e experiments.Experiment) {
		if err := e.Run(cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "duet-bench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
	}

	if *exp != "" {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "duet-bench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			run(e)
		}
		return
	}
	for _, e := range experiments.All() {
		run(e)
	}
}
