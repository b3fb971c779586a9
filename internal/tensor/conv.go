package tensor

import "fmt"

// Conv2D computes a 2-D convolution in NCHW layout via im2col + GEMM.
// x is (N, Cin, H, W); w is (Cout, Cin, KH, KW). stride and pad apply to
// both spatial dimensions. bias (Cout) may be nil.
func Conv2D(x, w, bias *Tensor, stride, pad int) *Tensor {
	return Conv2DInto(nil, x, w, bias, stride, pad, nil)
}

// Conv2DInto computes Conv2D into out (allocated from ar when nil). The
// image patches are unrolled directly into the packed tile-major B layout
// (one scratch buffer reused across the batch) and multiplied by the filter
// matrix through the packed GEMM; the per-channel bias rides on the same
// output pass.
func Conv2DInto(out *Tensor, x, w, bias *Tensor, stride, pad int, ar *Arena) *Tensor {
	if len(x.shape) != 4 || len(w.shape) != 4 {
		panic(fmt.Sprintf("tensor: Conv2D requires 4-D x and w, got %v, %v", x.shape, w.shape))
	}
	n, cin, h, wd := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	cout, cin2, kh, kw := w.shape[0], w.shape[1], w.shape[2], w.shape[3]
	if cin != cin2 {
		panic(fmt.Sprintf("tensor: Conv2D channel mismatch: x has %d, w expects %d", cin, cin2))
	}
	oh := (h+2*pad-kh)/stride + 1
	ow := (wd+2*pad-kw)/stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Conv2D produces empty output for x %v, w %v, stride %d, pad %d", x.shape, w.shape, stride, pad))
	}
	if out == nil {
		out = ar.New(n, cout, oh, ow)
	} else {
		want := []int{n, cout, oh, ow}
		if !ShapeEq(out.shape, want) {
			panic(fmt.Sprintf("tensor: Conv2DInto destination %v, want %v", out.shape, want))
		}
		clear(out.data)
	}

	colRows := cin * kh * kw // K of the GEMM
	colCols := oh * ow       // N of the GEMM
	col, scratch := ar.grabScratch(packedSize(colRows, colCols))
	for b := 0; b < n; b++ {
		im2colPacked(col, x.data[b*cin*h*wd:(b+1)*cin*h*wd], cin, h, wd, kh, kw, stride, pad, oh, ow)
		// out[b] (Cout × OH*OW) = w (Cout × colRows) · col (colRows × colCols)
		dst := out.data[b*cout*oh*ow : (b+1)*cout*oh*ow]
		gemmPacked(dst, w.data, col, cout, colCols, colRows)
		if bias != nil {
			for c := 0; c < cout; c++ {
				bv := bias.data[c]
				row := dst[c*colCols : (c+1)*colCols]
				for i := range row {
					row[i] += bv
				}
			}
		}
	}
	ar.dropScratch(scratch)
	return out
}

// im2colPacked unrolls one image (Cin, H, W) straight into the packed
// tile-major panel layout consumed by gemmPacked, skipping the intermediate
// row-major column matrix entirely. Every slot of the packed layout is
// written (padding pixels and the padding columns of the last panel as
// zeros), so non-zeroed scratch is safe. Panels are independent and are
// split across the worker pool.
func im2colPacked(bp, img []float32, cin, h, w, kh, kw, stride, pad, oh, ow int) {
	nTiles := (oh*ow + nr - 1) / nr
	grain := max(1, parallelThreshold/max(1, cin*kh*kw*nr))
	if nTiles <= grain || effectiveWorkers() <= 1 {
		im2colPanels(bp, img, 0, nTiles, cin, h, w, kh, kw, stride, pad, oh, ow)
		return
	}
	ParallelForChunked(nTiles, grain, func(t0, t1 int) {
		im2colPanels(bp, img, t0, t1, cin, h, w, kh, kw, stride, pad, oh, ow)
	})
}

// im2colPanels fills packed panels [t0, t1) one whole panel at a time, so
// the writes are contiguous: panel jt holds output positions
// [jt*nr, jt*nr+nr) and row kk = (c*kh+ki)*kw+kj holds the input pixel each
// of them reads through filter tap (c, ki, kj).
func im2colPanels(bp, img []float32, t0, t1, cin, h, w, kh, kw, stride, pad, oh, ow int) {
	colRows := cin * kh * kw
	// Top-left input coordinate of each live output position in the panel.
	var top, left [nr]int
	for jt := t0; jt < t1; jt++ {
		j0 := jt * nr
		jw := min(nr, oh*ow-j0)
		for jj := 0; jj < jw; jj++ {
			top[jj] = (j0+jj)/ow*stride - pad
			left[jj] = (j0+jj)%ow*stride - pad
		}
		dst := bp[jt*colRows*nr : (jt+1)*colRows*nr]
		kk := 0
		for c := 0; c < cin; c++ {
			chImg := img[c*h*w : (c+1)*h*w]
			for ki := 0; ki < kh; ki++ {
				for kj := 0; kj < kw; kj++ {
					d := dst[kk*nr : kk*nr+nr]
					for jj := 0; jj < jw; jj++ {
						ii, ix := top[jj]+ki, left[jj]+kj
						if uint(ii) < uint(h) && uint(ix) < uint(w) {
							d[jj] = chImg[ii*w+ix]
						} else {
							d[jj] = 0
						}
					}
					clear(d[jw:])
					kk++
				}
			}
		}
	}
}

// Conv2DBlocked is the previous im2col + blocked-GEMM convolution, kept as
// the unpacked baseline for the kernel benchmark suite.
func Conv2DBlocked(x, w, bias *Tensor, stride, pad int) *Tensor {
	if len(x.shape) != 4 || len(w.shape) != 4 {
		panic(fmt.Sprintf("tensor: Conv2D requires 4-D x and w, got %v, %v", x.shape, w.shape))
	}
	n, cin, h, wd := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	cout, cin2, kh, kw := w.shape[0], w.shape[1], w.shape[2], w.shape[3]
	if cin != cin2 {
		panic(fmt.Sprintf("tensor: Conv2D channel mismatch: x has %d, w expects %d", cin, cin2))
	}
	oh := (h+2*pad-kh)/stride + 1
	ow := (wd+2*pad-kw)/stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Conv2D produces empty output for x %v, w %v, stride %d, pad %d", x.shape, w.shape, stride, pad))
	}
	out := New(n, cout, oh, ow)

	colRows := cin * kh * kw
	colCols := oh * ow
	for b := 0; b < n; b++ {
		col := im2col(x.data[b*cin*h*wd:(b+1)*cin*h*wd], cin, h, wd, kh, kw, stride, pad, oh, ow)
		dst := out.data[b*cout*oh*ow : (b+1)*cout*oh*ow]
		gemmBlocked(dst, w.data, col, cout, colCols, colRows)
		if bias != nil {
			for c := 0; c < cout; c++ {
				bv := bias.data[c]
				row := dst[c*colCols : (c+1)*colCols]
				for i := range row {
					row[i] += bv
				}
			}
		}
	}
	return out
}

// im2col unrolls one image (Cin, H, W) into a (Cin*KH*KW, OH*OW) matrix.
func im2col(img []float32, cin, h, w, kh, kw, stride, pad, oh, ow int) []float32 {
	col := make([]float32, cin*kh*kw*oh*ow)
	ParallelFor(cin, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			chImg := img[c*h*w : (c+1)*h*w]
			for ki := 0; ki < kh; ki++ {
				for kj := 0; kj < kw; kj++ {
					rowBase := ((c*kh+ki)*kw + kj) * oh * ow
					for oi := 0; oi < oh; oi++ {
						ii := oi*stride + ki - pad
						dst := col[rowBase+oi*ow : rowBase+(oi+1)*ow]
						if ii < 0 || ii >= h {
							continue // stays zero (padding)
						}
						srcRow := chImg[ii*w : (ii+1)*w]
						for oj := 0; oj < ow; oj++ {
							jj := oj*stride + kj - pad
							if jj >= 0 && jj < w {
								dst[oj] = srcRow[jj]
							}
						}
					}
				}
			}
		}
	})
	return col
}

// Conv2DNaive is a direct reference convolution used by tests to validate
// the im2col path.
func Conv2DNaive(x, w, bias *Tensor, stride, pad int) *Tensor {
	n, cin, h, wd := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	cout, _, kh, kw := w.shape[0], w.shape[1], w.shape[2], w.shape[3]
	oh := (h+2*pad-kh)/stride + 1
	ow := (wd+2*pad-kw)/stride + 1
	out := New(n, cout, oh, ow)
	for b := 0; b < n; b++ {
		for co := 0; co < cout; co++ {
			for oi := 0; oi < oh; oi++ {
				for oj := 0; oj < ow; oj++ {
					var s float32
					for ci := 0; ci < cin; ci++ {
						for ki := 0; ki < kh; ki++ {
							ii := oi*stride + ki - pad
							if ii < 0 || ii >= h {
								continue
							}
							for kj := 0; kj < kw; kj++ {
								jj := oj*stride + kj - pad
								if jj < 0 || jj >= wd {
									continue
								}
								s += x.At(b, ci, ii, jj) * w.At(co, ci, ki, kj)
							}
						}
					}
					if bias != nil {
						s += bias.data[co]
					}
					out.Set(s, b, co, oi, oj)
				}
			}
		}
	}
	return out
}

// MaxPool2D applies max pooling with the given square kernel and stride on
// an NCHW tensor.
func MaxPool2D(x *Tensor, kernel, stride, pad int) *Tensor {
	return MaxPool2DInto(nil, x, kernel, stride, pad, nil)
}

// MaxPool2DInto applies max pooling into out (allocated from ar when nil).
func MaxPool2DInto(out *Tensor, x *Tensor, kernel, stride, pad int, ar *Arena) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh := (h+2*pad-kernel)/stride + 1
	ow := (w+2*pad-kernel)/stride + 1
	if out == nil {
		out = ar.NewNoZero(n, c, oh, ow)
	} else if !ShapeEq(out.shape, []int{n, c, oh, ow}) {
		panic(fmt.Sprintf("tensor: MaxPool2DInto destination %v, want %v", out.shape, []int{n, c, oh, ow}))
	}
	ParallelFor(n*c, func(lo, hi int) {
		for nc := lo; nc < hi; nc++ {
			src := x.data[nc*h*w : (nc+1)*h*w]
			dst := out.data[nc*oh*ow : (nc+1)*oh*ow]
			for oi := 0; oi < oh; oi++ {
				for oj := 0; oj < ow; oj++ {
					best := float32(-3.4e38)
					for ki := 0; ki < kernel; ki++ {
						ii := oi*stride + ki - pad
						if ii < 0 || ii >= h {
							continue
						}
						for kj := 0; kj < kernel; kj++ {
							jj := oj*stride + kj - pad
							if jj < 0 || jj >= w {
								continue
							}
							if v := src[ii*w+jj]; v > best {
								best = v
							}
						}
					}
					dst[oi*ow+oj] = best
				}
			}
		}
	})
	return out
}

// GlobalAvgPool2D averages each channel's spatial plane: (N,C,H,W) → (N,C).
func GlobalAvgPool2D(x *Tensor) *Tensor { return GlobalAvgPool2DInto(nil, x, nil) }

// GlobalAvgPool2DInto averages each channel's spatial plane into out
// (allocated from ar when nil).
func GlobalAvgPool2DInto(out *Tensor, x *Tensor, ar *Arena) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	if out == nil {
		out = ar.NewNoZero(n, c)
	} else if !ShapeEq(out.shape, []int{n, c}) {
		panic(fmt.Sprintf("tensor: GlobalAvgPool2DInto destination %v, want %v", out.shape, []int{n, c}))
	}
	plane := h * w
	ParallelFor(n*c, func(lo, hi int) {
		for nc := lo; nc < hi; nc++ {
			var s float64
			for _, v := range x.data[nc*plane : (nc+1)*plane] {
				s += float64(v)
			}
			out.data[nc] = float32(s / float64(plane))
		}
	})
	return out
}

// BatchNorm2D applies inference-mode batch normalisation on NCHW input using
// per-channel scale gamma, shift beta, running mean and variance.
func BatchNorm2D(x, gamma, beta, mean, variance *Tensor, eps float32) *Tensor {
	return BatchNorm2DInto(nil, x, gamma, beta, mean, variance, eps, nil)
}

// BatchNorm2DInto applies inference-mode batch normalisation into out
// (allocated from ar when nil).
func BatchNorm2DInto(out *Tensor, x, gamma, beta, mean, variance *Tensor, eps float32, ar *Arena) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	if out == nil {
		out = ar.NewNoZero(x.shape...)
	} else if !ShapeEq(out.shape, x.shape) {
		panic(fmt.Sprintf("tensor: BatchNorm2DInto destination %v, want %v", out.shape, x.shape))
	}
	plane := h * w
	ParallelFor(n*c, func(lo, hi int) {
		for nc := lo; nc < hi; nc++ {
			ch := nc % c
			g, b := gamma.data[ch], beta.data[ch]
			m, v := mean.data[ch], variance.data[ch]
			inv := g / sqrt32(v+eps)
			src := x.data[nc*plane : (nc+1)*plane]
			dst := out.data[nc*plane : (nc+1)*plane]
			for i, xv := range src {
				dst[i] = (xv-m)*inv + b
			}
		}
	})
	return out
}

func sqrt32(x float32) float32 {
	// Newton iterations on a float64 seed keep this dependency-free and exact
	// enough for normalisation denominators.
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 16; i++ {
		z = 0.5 * (z + x/z)
	}
	return z
}
