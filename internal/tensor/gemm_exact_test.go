package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// These tests pin every GEMM entry point to the naive oracles bit for bit
// (math.Float32bits). The oracles share no code with the packed kernels, so
// they stay the backstop for the microkernel whichever architecture's
// kernel is under test.

// edgeValues are the IEEE-754 edge cases planted in both operands.
var edgeValues = []float32{
	float32(math.NaN()),
	float32(math.Inf(1)),
	float32(math.Inf(-1)),
	float32(math.Copysign(0, -1)),
	math.Float32frombits(0x00000001), // smallest positive subnormal
	math.Float32frombits(0x807fffff), // largest-magnitude negative subnormal
	math.MaxFloat32,
}

// Table dimensions: every M mod mr, every N mod nr, and K at 1, just under,
// at and just over one packKC block, and past two blocks.
var (
	exactMs = []int{4, 5, 6, 7}
	exactNs = []int{8, 9, 10, 11, 12, 13, 14, 15}
	exactKs = []int{1, 255, 256, 257, 513}
)

// edgeOperand returns uniform values in [-scale, scale) with plant edge
// values at random positions. A scale of 1e-20 makes every product of two
// such values subnormal, so the kernels must keep gradual underflow.
func edgeOperand(rng *rand.Rand, scale float32, plant bool, shape ...int) *Tensor {
	t := Rand(rng, scale, shape...)
	if plant && len(t.data) > 0 {
		for i := 0; i < 1+len(t.data)/512; i++ {
			t.data[rng.Intn(len(t.data))] = edgeValues[rng.Intn(len(edgeValues))]
		}
	}
	return t
}

// bitDiff returns a description of the first element whose bits differ, or
// "" when got and want are identical. A NaN matches any NaN: IEEE 754 does
// not fix which operand's NaN an addition propagates, x86 returns the
// destination register's, and the compiler picks that register per
// expression, so the two oracles already disagree on the sign of a NaN sum.
func bitDiff(got, want []float32) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != got[i] && want[i] != want[i] {
			continue
		}
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			return fmt.Sprintf("element %d is %#08x (%g), want %#08x (%g)", i, g, got[i], w, want[i])
		}
	}
	return ""
}

// checkGEMMBitExact runs MatMulInto, LinearInto, BatchMatMulInto and a 1×1
// Conv2DInto at GEMM shape m×k·k×n and compares each with its naive oracle.
func checkGEMMBitExact(t *testing.T, rng *rand.Rand, m, n, k int) {
	t.Helper()
	scale := float32(1)
	if rng.Intn(4) == 0 {
		scale = 1e-20
	}
	a := edgeOperand(rng, scale, true, m, k)
	b := edgeOperand(rng, scale, true, k, n)
	bias := edgeOperand(rng, scale, true, n)
	want := MatMulNaive(a, b)
	if d := bitDiff(MatMulInto(nil, a, b, nil).data, want.data); d != "" {
		t.Errorf("MatMulInto %dx%dx%d: %s", m, k, n, d)
	}

	wantBias := want.Clone()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			wantBias.data[i*n+j] += bias.data[j]
		}
	}
	if d := bitDiff(LinearInto(nil, a, Transpose2D(b), bias, nil).data, wantBias.data); d != "" {
		t.Errorf("LinearInto %dx%dx%d: %s", m, k, n, d)
	}

	a2 := edgeOperand(rng, scale, true, m, k)
	b2 := edgeOperand(rng, scale, true, k, n)
	batchA := FromSlice(append(append([]float32{}, a.data...), a2.data...), 2, m, k)
	batchB := FromSlice(append(append([]float32{}, b.data...), b2.data...), 2, k, n)
	batchWant := append(append([]float32{}, want.data...), MatMulNaive(a2, b2).data...)
	if d := bitDiff(BatchMatMulInto(nil, batchA, batchB, nil).data, batchWant); d != "" {
		t.Errorf("BatchMatMulInto 2x%dx%dx%d: %s", m, k, n, d)
	}

	// A 1×1 convolution over a 1×n image with k channels is the same GEMM:
	// the filters are the m×k A operand and the image is the k×n B operand.
	x := FromSlice(b.data, 1, k, 1, n)
	w := FromSlice(a.data, m, k, 1, 1)
	convBias := edgeOperand(rng, scale, true, m)
	if d := bitDiff(Conv2DInto(nil, x, w, convBias, 1, 0, nil).data, Conv2DNaive(x, w, convBias, 1, 0).data); d != "" {
		t.Errorf("Conv2DInto 1x1 %dx%dx%d: %s", m, k, n, d)
	}
}

// TestGEMMBitExactTable covers every M mod 4, N mod 8 and the K block
// boundaries with edge values in both operands.
func TestGEMMBitExactTable(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, m := range exactMs {
		for _, n := range exactNs {
			for _, k := range exactKs {
				checkGEMMBitExact(t, rng, m, n, k)
			}
		}
	}
}

// TestGEMMBitExactRandom is the seeded property test: random shapes,
// including several row panels and edge panels, against the oracles.
func TestGEMMBitExactRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	iters := 150
	if testing.Short() {
		iters = 30
	}
	for i := 0; i < iters; i++ {
		checkGEMMBitExact(t, rng, 1+rng.Intn(70), 1+rng.Intn(40), 1+rng.Intn(600))
	}
}

// FuzzGEMMBitExact explores shapes and operand seeds beyond the table; its
// corpus is the table itself.
func FuzzGEMMBitExact(f *testing.F) {
	for _, m := range exactMs {
		for _, n := range exactNs {
			for _, k := range exactKs {
				f.Add(uint8(m), uint8(n), uint16(k), int64(m*n*k))
			}
		}
	}
	f.Fuzz(func(t *testing.T, m, n uint8, k uint16, seed int64) {
		checkGEMMBitExact(t, rand.New(rand.NewSource(seed)), 1+int(m%70), 1+int(n%40), 1+int(k%1100))
	})
}

// TestConv2DPaddedBitExact runs im2col shapes with padding and stride
// against the direct convolution. The oracle skips padding taps while the
// packed path multiplies them by zero, which agrees bit for bit only for
// finite filters, so edge values are planted in the image alone.
func TestConv2DPaddedBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, s := range []struct{ cin, cout, h, w, kh, stride, pad int }{
		{1, 4, 5, 5, 3, 1, 1},   // N=25: one live column in the edge panel
		{3, 5, 7, 7, 3, 2, 1},   // N=16: whole panels
		{29, 6, 6, 7, 3, 1, 1},  // K=261 crosses a packKC block, N=42
		{4, 7, 14, 14, 1, 1, 0}, // N=196, the 14×14 stage
		{8, 3, 9, 9, 5, 2, 2},   // N=25 with a 5×5 filter
		{2, 9, 7, 7, 7, 1, 3},   // N=49, the 7×7 stage
	} {
		x := edgeOperand(rng, 1, true, 2, s.cin, s.h, s.w)
		w := edgeOperand(rng, 1, false, s.cout, s.cin, s.kh, s.kh)
		for i := 0; i < len(w.data); i += 7 {
			w.data[i] = edgeValues[3+i%3] // −0 and subnormals only
		}
		bias := edgeOperand(rng, 1, true, s.cout)
		got := Conv2DInto(nil, x, w, bias, s.stride, s.pad, nil)
		if d := bitDiff(got.data, Conv2DNaive(x, w, bias, s.stride, s.pad).data); d != "" {
			t.Errorf("Conv2DInto %+v: %s", s, d)
		}
	}
}

// TestGEMMZeroK checks that m×0 · 0×n products return zeros, overwriting a
// dirty destination, and that the kernels are never entered: the calls
// below hand nil operands to the kernel layer, so any access would panic.
func TestGEMMZeroK(t *testing.T) {
	for _, s := range [][2]int{{1, 1}, {4, 8}, {5, 13}} {
		m, n := s[0], s[1]
		zeros := make([]float32, 2*m*n)
		out := Full(float32(math.NaN()), m, n)
		if d := bitDiff(MatMulInto(out, New(m, 0), New(0, n), nil).data, zeros[:m*n]); d != "" {
			t.Errorf("MatMulInto %dx0x%d: %s", m, n, d)
		}
		if d := bitDiff(LinearInto(nil, New(m, 0), New(n, 0), nil, nil).data, zeros[:m*n]); d != "" {
			t.Errorf("LinearInto %dx0x%d: %s", m, n, d)
		}
		if d := bitDiff(BatchMatMulInto(nil, New(2, m, 0), New(2, 0, n), nil).data, zeros); d != "" {
			t.Errorf("BatchMatMulInto 2x%dx0x%d: %s", m, n, d)
		}
		c := make([]float32, m*n)
		gemmPacked(c, nil, nil, m, n, 0)
		if d := bitDiff(c, zeros[:m*n]); d != "" {
			t.Errorf("gemmPacked %dx0x%d: %s", m, n, d)
		}
	}
	micro4x8(nil, 0, nil, 0, nil, 0, 0)
	micro1x8(nil, nil, nil, 0, 0)
}
