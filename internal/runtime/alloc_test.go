package runtime

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"runtime/debug"
	"testing"

	"duet/internal/compiler"
	"duet/internal/device"
	"duet/internal/graph"
	"duet/internal/models"
	"duet/internal/partition"
	"duet/internal/tensor"
	"duet/internal/workload"
)

// assertArenaCutsAllocs measures a warm end-to-end Run with and without the
// arena and fails unless the arena at least halves the steady-state
// allocation count.
func assertArenaCutsAllocs(t *testing.T, e *Engine, inputs map[string]*tensor.Tensor) {
	t.Helper()
	place := Uniform(e.NumSubgraphs(), device.CPU)
	run := func() {
		if _, err := e.Run(inputs, place, true); err != nil {
			t.Fatal(err)
		}
	}

	// Warm both substrates: arena pools fill, weight packs cache, the worker
	// pool spins up. Only steady state is guarded.
	run()
	run()
	withArena := testing.AllocsPerRun(5, run)

	e.SetArena(nil)
	run()
	withoutArena := testing.AllocsPerRun(5, run)
	e.SetArena(tensor.NewArena())

	if withoutArena == 0 {
		t.Fatal("baseline run reports zero allocations; guard is measuring nothing")
	}
	if withArena > withoutArena/2 {
		t.Fatalf("warm run allocates %.0f objects with the arena, want ≤ half of the %.0f without it",
			withArena, withoutArena)
	}
}

// assertPolicyRecyclesLikeRun fails when warm fault-free RunWithPolicy
// calls miss the arena more often than as many warm Run calls: both compute
// values through the same serial executor, which hands each boundary value
// back to the arena after its last consumer. The count runs on one P with
// garbage collection held off: the arena's sync.Pools keep a per-P private
// slot and empty on collection, and either would move misses between the
// two loops at random.
func assertPolicyRecyclesLikeRun(t *testing.T, e *Engine, inputs map[string]*tensor.Tensor) {
	t.Helper()
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	place := Uniform(e.NumSubgraphs(), device.CPU)
	const warm, counted = 2, 6
	misses := func(run func() (*Result, error)) int64 {
		var before int64
		for i := 0; i < warm+counted; i++ {
			if i == warm {
				before = e.Arena().Stats().Misses
			}
			if _, err := run(); err != nil {
				t.Fatal(err)
			}
		}
		return e.Arena().Stats().Misses - before
	}
	runMisses := misses(func() (*Result, error) { return e.Run(inputs, place, true) })
	policyMisses := misses(func() (*Result, error) { return e.RunWithPolicy(inputs, place, DefaultPolicy()) })
	t.Logf("arena misses over %d warm runs: Run %d, RunWithPolicy %d", counted, runMisses, policyMisses)
	if policyMisses > runMisses {
		t.Fatalf("%d warm policy runs missed the arena %d times, %d warm Runs only %d: policy runs do not recycle boundary values",
			counted, policyMisses, counted, runMisses)
	}
}

// TestArenaCutsSteadyStateAllocs is the allocation regression guard for the
// arena executor: a warm end-to-end Run must allocate at most half of what
// the same run costs with the arena disabled. The siamese case covers the
// GEMM-heavy zoo path; the chain case covers fused elementwise-chain
// kernels, whose epilogue tapes draw emit buffers and scratch registers
// from pools instead of the heap. Both run under `make check`, so a change
// that silently stops recycling activation buffers fails the gate rather
// than just showing up in benchmarks.
func TestArenaCutsSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop Puts at random; allocation accounting is only meaningful without -race (make check runs a plain pass)")
	}

	t.Run("siamese", func(t *testing.T) {
		cfg := models.SiameseConfig{
			Batch: 1, SeqLen: 32, Vocab: 500, EmbedDim: 64,
			Hidden: 96, Layers: 2, ProjDim: 48, Seed: 11,
		}
		g, err := models.Siamese(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := compiler.InferShapes(g); err != nil {
			t.Fatal(err)
		}
		p, err := partition.Build(g)
		if err != nil {
			t.Fatal(err)
		}
		e := newEngine(t, p, 0)
		inputs := workload.SiameseInputs(cfg, 7)
		assertArenaCutsAllocs(t, e, inputs)
		assertPolicyRecyclesLikeRun(t, e, inputs)
	})

	t.Run("elementwise_chain", func(t *testing.T) {
		// A chain-heavy graph with residual forks: unconstrained fusion
		// lowers it to tape launches whose emitted intermediates must
		// come from (and return to) the arena for the warm run to stay
		// allocation-free.
		rng := rand.New(rand.NewSource(3))
		g := graph.New("chain-heavy")
		x := g.AddInput("x", 1, 64)
		row := g.AddConst("row", tensor.Rand(rng, 1, 64))
		cur := x
		for i := 0; i < 6; i++ {
			act := g.Add("relu", fmt.Sprintf("c%d.act", i), nil, cur)
			scaled := g.Add("mul", fmt.Sprintf("c%d.scaled", i), nil, act, row)
			cur = g.Add("add", fmt.Sprintf("c%d.res", i), nil, scaled, cur)
		}
		g.SetOutputs(cur)
		if err := compiler.InferShapes(g); err != nil {
			t.Fatal(err)
		}
		p, err := partition.Build(g)
		if err != nil {
			t.Fatal(err)
		}
		e := newEngine(t, p, 0)
		fused := 0
		for i := 0; i < e.NumSubgraphs(); i++ {
			fused += e.Module(i).FusionStats().Groups
		}
		if fused == 0 {
			t.Fatal("chain-heavy graph compiled with no fused groups; the case is not exercising the tape path")
		}
		inputs := map[string]*tensor.Tensor{"x": tensor.Rand(rng, 1, 1, 64)}
		assertArenaCutsAllocs(t, e, inputs)
	})
}
