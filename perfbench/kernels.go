package main

import (
	"fmt"
	"math/rand"
	"time"

	"duet/internal/compiler"
	"duet/internal/graph"
	"duet/internal/tensor"
)

// kernelCall is one GEMM-class tensor kernel call a module makes, bound to
// operands of the shapes it runs at: the module's own pinned weights, and
// synthetic activations.
type kernelCall struct {
	class string // conv, gemm (M>1) or gemv (M=1)
	shape string
	flops float64
	count int // calls per op
	run   func(ar *tensor.Arena) *tensor.Tensor
}

// kernelCalls lists the Conv2DInto, LinearInto, MatMulInto and
// BatchMatMulInto calls one op makes, one execution of each module,
// merging calls of equal shape.
func kernelCalls(mods []*compiler.Module) []*kernelCall {
	rng := rand.New(rand.NewSource(1))
	byKey := map[string]*kernelCall{}
	var calls []*kernelCall
	add := func(class string, count int, flops float64, run func(*tensor.Arena) *tensor.Tensor, shape string) {
		key := class + " " + shape
		if c, ok := byKey[key]; ok {
			c.count += count
			return
		}
		c := &kernelCall{class: class, shape: shape, flops: flops, count: count, run: run}
		byKey[key] = c
		calls = append(calls, c)
	}
	for _, mod := range mods {
		g := mod.Graph
		operand := func(n *graph.Node, i int) *tensor.Tensor {
			in := g.Node(n.Inputs[i])
			if in.IsConst() {
				return in.Value
			}
			return tensor.Rand(rng, 1, in.Shape...)
		}
		act := func(shape ...int) *tensor.Tensor { return tensor.Rand(rng, 1, shape...) }
		for _, n := range g.Nodes() {
			switch n.Op {
			case "conv2d":
				x, w := operand(n, 0), operand(n, 1)
				var bias *tensor.Tensor
				if len(n.Inputs) == 3 {
					bias = operand(n, 2)
				}
				stride, pad := n.Attrs.Int("stride", 1), n.Attrs.Int("pad", 0)
				flops := compiler.NodeCost(g, n.ID).FLOPs
				add("conv", 1, flops, func(ar *tensor.Arena) *tensor.Tensor {
					return tensor.Conv2DInto(nil, x, w, bias, stride, pad, ar)
				}, fmt.Sprintf("x%v w%v s%d p%d", x.Shape(), w.Shape(), stride, pad))
			case "dense":
				x, w := operand(n, 0), operand(n, 1)
				var bias *tensor.Tensor
				if len(n.Inputs) == 3 {
					bias = operand(n, 2)
				}
				addLinear(add, x, w, bias, 1)
			case "matmul":
				a, b := operand(n, 0), operand(n, 1)
				addMatMul(add, a, b, 1)
			case "batch_matmul":
				a, b := operand(n, 0), operand(n, 1)
				bt, m, k, nn := a.Dim(0), a.Dim(1), a.Dim(2), b.Dim(2)
				add(gemmClass(m), 1, 2*float64(bt*m*k*nn), func(ar *tensor.Arena) *tensor.Tensor {
					return tensor.BatchMatMulInto(nil, a, b, ar)
				}, fmt.Sprintf("bmm %v·%v", a.Shape(), b.Shape()))
			case "lstm", "gru":
				// Each timestep multiplies the step input by wx (with the
				// bias) and the hidden state by wh.
				x := g.Node(n.Inputs[0])
				b, t, in := x.Shape[0], x.Shape[1], x.Shape[2]
				wx, wh, bias := operand(n, 1), operand(n, 2), operand(n, 3)
				addLinear(add, act(b, in), wx, bias, t)
				addLinear(add, act(b, wh.Dim(1)), wh, nil, t)
			case "mha":
				// Per batch row: q, k, v and output projections; per head,
				// scores = q·kᵀ and context = softmax(scores)·v.
				x := g.Node(n.Inputs[0])
				b, t, d := x.Shape[0], x.Shape[1], x.Shape[2]
				heads := n.Attrs.Int("heads", 1)
				hd := d / heads
				for _, wi := range []int{1, 2, 3, 4} {
					addLinear(add, act(t, d), operand(n, wi), nil, b)
				}
				addLinear(add, act(t, hd), act(t, hd), nil, b*heads)
				addMatMul(add, act(t, t), act(t, hd), b*heads)
			}
		}
	}
	return calls
}

type addFunc func(class string, count int, flops float64, run func(*tensor.Arena) *tensor.Tensor, shape string)

// gemmClass separates matrix-vector products (one output row) from
// matrix-matrix ones.
func gemmClass(m int) string {
	if m == 1 {
		return "gemv"
	}
	return "gemm"
}

func addLinear(add addFunc, x, w, bias *tensor.Tensor, count int) {
	m, k, n := x.Dim(0), x.Dim(1), w.Dim(0)
	add(gemmClass(m), count, 2*float64(m*k*n), func(ar *tensor.Arena) *tensor.Tensor {
		return tensor.LinearInto(nil, x, w, bias, ar)
	}, fmt.Sprintf("linear %v·%vᵀ bias=%t", x.Shape(), w.Shape(), bias != nil))
}

func addMatMul(add addFunc, a, b *tensor.Tensor, count int) {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	add(gemmClass(m), count, 2*float64(m*k*n), func(ar *tensor.Arena) *tensor.Tensor {
		return tensor.MatMulInto(nil, a, b, ar)
	}, fmt.Sprintf("matmul %v·%v", a.Shape(), b.Shape()))
}

// probeKernels times every distinct kernel call once warm (median of at
// least three calls, more while under 20 ms) and reports GFLOP/s per shape
// class and the share of the op's execute time the probed kernels
// account for.
func probeKernels(r *report, tr *tracer, mods []*compiler.Module, executeMS float64) error {
	ar := tensor.NewArena()
	flops := map[string]float64{}
	secs := map[string]float64{}
	var total float64
	for _, c := range kernelCalls(mods) {
		ar.Release(c.run(ar)) // fill the pack cache and the arena
		var samples []float64
		start := time.Now()
		for len(samples) < 3 || (len(samples) < 50 && time.Since(start) < 20*time.Millisecond) {
			id := tr.begin("tensor.probe", 0, -1, 0)
			out := c.run(ar)
			samples = append(samples, tr.end(id, map[string]any{"class": c.class, "shape": c.shape}).Seconds())
			ar.Release(out)
		}
		t := median(samples)
		flops[c.class] += c.flops * float64(c.count)
		secs[c.class] += t * float64(c.count)
		total += t * float64(c.count)
	}
	for _, class := range []string{"conv", "gemm", "gemv"} {
		if secs[class] > 0 {
			r.set("tensor."+class+"_gflops", "GFLOP/s", flops[class]/secs[class]/1e9)
		}
	}
	if executeMS <= 0 {
		return fmt.Errorf("no execute time to share kernel time against")
	}
	r.set("tensor.kernel_share", "ratio", total*1e3/executeMS)
	return nil
}
