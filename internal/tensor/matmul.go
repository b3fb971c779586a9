package tensor

import "fmt"

// Packed-GEMM geometry. The microkernel computes an mr×nr tile of C, each
// lane accumulating in strictly ascending k (micro_amd64.s on amd64,
// micro_generic.go elsewhere); B is repacked into tile-major panels of nr
// columns so the innermost loads are contiguous regardless of N. packKC
// bounds the K-extent touched per panel sweep (keeps the active A rows and
// B panel L1/L2-resident) and packMC is the row granularity handed to the
// worker pool, aligned to whole microkernel tiles.
const (
	mr     = 4
	nr     = 8
	packKC = 256
	packMC = 64
)

// Legacy block sizes for the previous cache-blocked kernel, kept as a
// benchmark baseline (see MatMulBlocked).
const (
	blockM = 64
	blockN = 64
	blockK = 128
)

// MatMul returns the matrix product a(M×K) · b(K×N).
func MatMul(a, b *Tensor) *Tensor { return MatMulInto(nil, a, b, nil) }

// MatMulInto computes a(M×K) · b(K×N) through the packed kernel. When out
// is nil a destination is taken from ar (or the plain allocator if ar is
// nil); otherwise out must already have shape M×N and is overwritten.
// Accumulation per output element is strictly k-ascending into a single
// accumulator, so results are bit-identical to MatMulNaive.
func MatMulInto(out *Tensor, a, b *Tensor, ar *Arena) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires 2-D operands, got %v × %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions differ: %v × %v", a.shape, b.shape))
	}
	if out == nil {
		out = ar.New(m, n)
	} else {
		if len(out.shape) != 2 || out.shape[0] != m || out.shape[1] != n {
			panic(fmt.Sprintf("tensor: MatMulInto destination %v, want [%d %d]", out.shape, m, n))
		}
		clear(out.data)
	}
	if m == 0 || n == 0 {
		return out
	}
	bp, scratch := packedB(b, k, n, false, ar)
	gemmPacked(out.data, a.data, bp, m, n, k)
	ar.dropScratch(scratch)
	return out
}

// Linear returns x·wᵀ + bias for x(M×K), w(N×K), bias(N) — the dense-layer
// convention used throughout the model zoo. bias may be nil.
func Linear(x, w, bias *Tensor) *Tensor {
	return LinearInto(nil, x, w, bias, nil)
}

// LinearInto computes x·wᵀ + bias into out (allocated from ar when nil).
// The weight is packed as a transposed B operand; pinned weights hit the
// cross-call pack cache. The bias is added in a single pass over each
// output row. For a fused epilogue program after the bias, see
// LinearChainInto.
func LinearInto(out *Tensor, x, w, bias *Tensor, ar *Arena) *Tensor {
	out = linearGEMM(out, x, w, bias, ar)
	if bias != nil {
		addBias(out.data, out.shape[0], out.shape[1], bias.data)
	}
	return out
}

// linearGEMM runs the packed x·wᵀ product shared by LinearInto and
// LinearChainInto, leaving the bias/epilogue pass to the caller.
func linearGEMM(out *Tensor, x, w, bias *Tensor, ar *Arena) *Tensor {
	if len(x.shape) != 2 || len(w.shape) != 2 {
		panic(fmt.Sprintf("tensor: Linear requires 2-D operands, got %v, %v", x.shape, w.shape))
	}
	m, k := x.shape[0], x.shape[1]
	n, k2 := w.shape[0], w.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: Linear inner dimensions differ: x %v, w %v", x.shape, w.shape))
	}
	if bias != nil && bias.Numel() != n {
		panic(fmt.Sprintf("tensor: Linear bias has %d elements, want %d", bias.Numel(), n))
	}
	if out == nil {
		out = ar.New(m, n)
	} else {
		if len(out.shape) != 2 || out.shape[0] != m || out.shape[1] != n {
			panic(fmt.Sprintf("tensor: LinearInto destination %v, want [%d %d]", out.shape, m, n))
		}
		clear(out.data)
	}
	if m == 0 || n == 0 {
		return out
	}
	bp, scratch := packedB(w, k, n, true, ar)
	gemmPacked(out.data, x.data, bp, m, n, k)
	ar.dropScratch(scratch)
	return out
}

// BatchMatMul multiplies two 3-D tensors batchwise: a(B×M×K) · b(B×K×N).
func BatchMatMul(a, b *Tensor) *Tensor { return BatchMatMulInto(nil, a, b, nil) }

// BatchMatMulInto multiplies a(B×M×K) · b(B×K×N) batchwise through the
// packed kernel, reusing one pack buffer across batches.
func BatchMatMulInto(out *Tensor, a, b *Tensor, ar *Arena) *Tensor {
	if len(a.shape) != 3 || len(b.shape) != 3 || a.shape[0] != b.shape[0] {
		panic(fmt.Sprintf("tensor: BatchMatMul requires matching 3-D operands, got %v × %v", a.shape, b.shape))
	}
	bs, m, k := a.shape[0], a.shape[1], a.shape[2]
	if b.shape[1] != k {
		panic(fmt.Sprintf("tensor: BatchMatMul inner dimensions differ: %v × %v", a.shape, b.shape))
	}
	n := b.shape[2]
	if out == nil {
		out = ar.New(bs, m, n)
	} else {
		if len(out.shape) != 3 || out.shape[0] != bs || out.shape[1] != m || out.shape[2] != n {
			panic(fmt.Sprintf("tensor: BatchMatMulInto destination %v, want [%d %d %d]", out.shape, bs, m, n))
		}
		clear(out.data)
	}
	if bs == 0 || m == 0 || n == 0 {
		return out
	}
	buf, scratch := ar.grabScratch(packedSize(k, n))
	for i := 0; i < bs; i++ {
		packBRowMajor(buf, b.data[i*k*n:(i+1)*k*n], k, n)
		gemmPacked(out.data[i*m*n:(i+1)*m*n], a.data[i*m*k:(i+1)*m*k], buf, m, n, k)
	}
	ar.dropScratch(scratch)
	return out
}

// packedSize returns the element count of the packed layout of a K×N
// operand: full-K panels of nr columns, edge panels zero-padded.
func packedSize(k, n int) int { return (n + nr - 1) / nr * k * nr }

// packedB returns b's packed panels. trans=false packs a K×N row-major
// operand; trans=true packs an N×K operand as its transpose (the dense
// weight path). Pinned tensors are served from the cross-call weight cache;
// anything else is packed into arena scratch, returned for release.
func packedB(b *Tensor, k, n int, trans bool, ar *Arena) ([]float32, *Tensor) {
	sz := packedSize(k, n)
	if b.pinned && len(b.data) > 0 {
		key := packKey{ptr: &b.data[0], trans: trans}
		if buf := weightPackCache.lookup(key, k, n); buf != nil {
			return buf, nil
		}
		buf := make([]float32, sz)
		if trans {
			packBTransposed(buf, b.data, k, n)
		} else {
			packBRowMajor(buf, b.data, k, n)
		}
		weightPackCache.insert(key, buf, k, n)
		return buf, nil
	}
	buf, scratch := ar.grabScratch(sz)
	if trans {
		packBTransposed(buf, b.data, k, n)
	} else {
		packBRowMajor(buf, b.data, k, n)
	}
	return buf, scratch
}

// packBRowMajor packs a K×N row-major operand into tile-major panels:
// bp[jt*k*nr + kk*nr + jj] = b[kk*n + jt*nr + jj], zero-padding columns
// past N so the microkernel never needs an edge case in K. Every slot of bp
// is written, so non-zeroed scratch is safe.
func packBRowMajor(bp, b []float32, k, n int) {
	nTiles := (n + nr - 1) / nr
	for jt := 0; jt < nTiles; jt++ {
		j0 := jt * nr
		jw := min(nr, n-j0)
		dst := bp[jt*k*nr:]
		for kk := 0; kk < k; kk++ {
			src := b[kk*n+j0 : kk*n+j0+jw]
			d := dst[kk*nr : kk*nr+nr]
			copy(d, src)
			for jj := jw; jj < nr; jj++ {
				d[jj] = 0
			}
		}
	}
}

// packBTransposed packs an N×K row-major operand w as the B = wᵀ panels:
// bp[jt*k*nr + kk*nr + jj] = w[(jt*nr+jj)*k + kk].
func packBTransposed(bp, w []float32, k, n int) {
	nTiles := (n + nr - 1) / nr
	for jt := 0; jt < nTiles; jt++ {
		j0 := jt * nr
		jw := min(nr, n-j0)
		dst := bp[jt*k*nr:]
		for jj := 0; jj < jw; jj++ {
			wrow := w[(j0+jj)*k : (j0+jj)*k+k]
			for kk := 0; kk < k; kk++ {
				dst[kk*nr+jj] = wrow[kk]
			}
		}
		for jj := jw; jj < nr; jj++ {
			for kk := 0; kk < k; kk++ {
				dst[kk*nr+jj] = 0
			}
		}
	}
}

// gemmPacked computes C += A·B for row-major A (M×K), packed B panels, and
// row-major C (M×N, pre-zeroed by the caller). Rows are distributed to the
// worker pool in packMC panels; within a panel the K range is swept in
// packKC blocks and each nr-wide B panel is streamed through the 4×8
// microkernel. Each C element accumulates k-ascending via load-accumulate-
// store, so splitting K across blocks does not change the addition order.
func gemmPacked(c, a, bp []float32, m, n, k int) {
	// Single-block or serial execution calls the row worker directly — the
	// closure below costs a heap allocation per call, which the LSTM's
	// per-step GEMVs would pay thousands of times per inference.
	if blocks := (m + packMC - 1) / packMC; blocks <= 1 || effectiveWorkers() <= 1 {
		gemmRows(c, a, bp, 0, m, n, k)
		return
	}
	ParallelForChunked(m, packMC, func(i0, i1 int) {
		gemmRows(c, a, bp, i0, i1, n, k)
	})
}

// gemmRows computes rows [i0, i1) of C against the packed panels of B. Row
// blocks are independent, so any partition of [0, m) yields bit-identical
// results. Each microkernel call covers at most packKC k-steps.
func gemmRows(c, a, bp []float32, i0, i1, n, k int) {
	nTiles := (n + nr - 1) / nr
	for k0 := 0; k0 < k; k0 += packKC {
		k1 := min(k0+packKC, k)
		for jt := 0; jt < nTiles; jt++ {
			j0 := jt * nr
			panel := bp[jt*k*nr : (jt+1)*k*nr]
			if jw := n - j0; jw < nr {
				edgeRows(c, a, panel, i0, i1, n, k, j0, jw, k0, k1)
				continue
			}
			i := i0
			for ; i+mr <= i1; i += mr {
				micro4x8(c[i*n+j0:], n, a[i*k:], k, panel, k0, k1)
			}
			for ; i < i1; i++ {
				micro1x8(c[i*n+j0:], a[i*k:], panel, k0, k1)
			}
		}
	}
}

// edgeRows runs rows [i0, i1) of the right-edge panel, whose live width jw
// is under nr, through the full-width microkernels on a stack tile: the jw
// live C columns are copied in, the rest of the tile is zeroed, and only
// the jw live columns are copied back. The panel's padding B columns are
// zero and output lanes are independent, so the live columns are bit-exact.
func edgeRows(c, a, panel []float32, i0, i1, n, k, j0, jw, k0, k1 int) {
	var tile [mr * nr]float32
	for i := i0; i < i1; i += mr {
		rows := min(mr, i1-i)
		for r := 0; r < rows; r++ {
			t := tile[r*nr : r*nr+nr]
			copy(t, c[(i+r)*n+j0:(i+r)*n+j0+jw])
			clear(t[jw:])
		}
		if rows == mr {
			micro4x8(tile[:], nr, a[i*k:], k, panel, k0, k1)
		} else {
			for r := 0; r < rows; r++ {
				micro1x8(tile[r*nr:], a[(i+r)*k:], panel, k0, k1)
			}
		}
		for r := 0; r < rows; r++ {
			copy(c[(i+r)*n+j0:(i+r)*n+j0+jw], tile[r*nr:r*nr+jw])
		}
	}
}

// addBias adds the bias row-broadcast to each row of c (bias-after-sum
// order matches the naive Linear reference).
func addBias(c []float32, m, n int, bias []float32) {
	if m < parallelThreshold || effectiveWorkers() <= 1 {
		biasRows(c, 0, m, n, bias)
		return
	}
	ParallelFor(m, func(lo, hi int) {
		biasRows(c, lo, hi, n, bias)
	})
}

func biasRows(c []float32, lo, hi, n int, bias []float32) {
	for i := lo; i < hi; i++ {
		row := c[i*n : i*n+n]
		for j := range row {
			row[j] += bias[j]
		}
	}
}

// MatMulNaive is a reference triple-loop implementation used by tests to
// validate the packed kernel bit-for-bit.
func MatMulNaive(a, b *Tensor) *Tensor {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += a.data[i*k+kk] * b.data[kk*n+j]
			}
			out.data[i*n+j] = s
		}
	}
	return out
}

// MatMulBlocked is the previous cache-blocked axpy kernel, kept as the
// unpacked baseline for the kernel benchmark suite. The per-element
// zero-skip branch the original carried is gone: for dense inputs it was a
// mispredicted branch per multiply that defeated any chance of keeping the
// inner loop streaming.
func MatMulBlocked(a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires 2-D operands, got %v × %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions differ: %v × %v", a.shape, b.shape))
	}
	out := New(m, n)
	gemmBlocked(out.data, a.data, b.data, m, n, k)
	return out
}

// gemmBlocked computes C += A·B for row-major matrices (C pre-zeroed),
// parallelized over blocks of rows of C.
func gemmBlocked(c, a, b []float32, m, n, k int) {
	nBlocks := (m + blockM - 1) / blockM
	ParallelFor(nBlocks, func(blo, bhi int) {
		for bi := blo; bi < bhi; bi++ {
			i0 := bi * blockM
			i1 := min(i0+blockM, m)
			for k0 := 0; k0 < k; k0 += blockK {
				k1 := min(k0+blockK, k)
				for j0 := 0; j0 < n; j0 += blockN {
					j1 := min(j0+blockN, n)
					blockKernel(c, a, b, n, k, i0, i1, j0, j1, k0, k1)
				}
			}
		}
	})
}

// blockKernel updates C[i0:i1, j0:j1] += A[i0:i1, k0:k1] · B[k0:k1, j0:j1]
// axpy-style along contiguous rows of B and C.
func blockKernel(c, a, b []float32, n, k, i0, i1, j0, j1, k0, k1 int) {
	for i := i0; i < i1; i++ {
		arow := a[i*k : i*k+k1]
		crow := c[i*n+j0 : i*n+j1]
		for kk := k0; kk < k1; kk++ {
			av := arow[kk]
			brow := b[kk*n+j0 : kk*n+j1]
			for j := range crow {
				crow[j] += av * brow[j]
			}
		}
	}
}

// LinearBlocked is the previous row-dot dense kernel (bias folded into the
// main loop), kept as the unpacked baseline for the kernel benchmarks.
func LinearBlocked(x, w, bias *Tensor) *Tensor {
	if len(x.shape) != 2 || len(w.shape) != 2 {
		panic(fmt.Sprintf("tensor: Linear requires 2-D operands, got %v, %v", x.shape, w.shape))
	}
	m, k := x.shape[0], x.shape[1]
	n, k2 := w.shape[0], w.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: Linear inner dimensions differ: x %v, w %v", x.shape, w.shape))
	}
	out := New(m, n)
	ParallelFor(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xrow := x.data[i*k : (i+1)*k]
			orow := out.data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				wrow := w.data[j*k : (j+1)*k]
				var s float32
				for kk := range xrow {
					s += xrow[kk] * wrow[kk]
				}
				if bias != nil {
					s += bias.data[j]
				}
				orow[j] = s
			}
		}
	})
	return out
}

// Transpose2D returns the transpose of a 2-D tensor.
func Transpose2D(t *Tensor) *Tensor { return Transpose2DInto(nil, t, nil) }

// Transpose2DInto transposes a 2-D tensor into out (allocated from ar when
// nil).
func Transpose2DInto(out *Tensor, t *Tensor, ar *Arena) *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: Transpose2D requires a 2-D tensor")
	}
	m, n := t.shape[0], t.shape[1]
	if out == nil {
		out = ar.New(n, m)
	} else if len(out.shape) != 2 || out.shape[0] != n || out.shape[1] != m {
		panic(fmt.Sprintf("tensor: Transpose2DInto destination %v, want [%d %d]", out.shape, n, m))
	}
	ParallelFor(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < n; j++ {
				out.data[j*m+i] = t.data[i*n+j]
			}
		}
	})
	return out
}
