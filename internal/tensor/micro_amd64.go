package tensor

// On amd64 the GEMM microkernels are SSE2 assembly (micro_amd64.s). SSE2 is
// part of the amd64 baseline, so there is no feature dispatch. Each kernel
// multiplies with MULPS and then adds with ADDPS, never a fused
// multiply-add, so every output lane rounds the product and the sum
// separately in strictly ascending k and stays bit-identical to
// MatMulNaive. The wrappers bounds-check the last element each operand
// touches before handing raw pointers to the assembly.

// micro4x8 updates the 4×8 tile c[r*ldc+j] (r < mr, j < nr) with
// a[r*lda+kk] · panel[kk*nr+j] for kk in [k0, k1), ascending. Strides are
// non-negative.
func micro4x8(c []float32, ldc int, a []float32, lda int, panel []float32, k0, k1 int) {
	if k0 >= k1 {
		return
	}
	_ = c[(mr-1)*ldc+nr-1]
	_ = a[(mr-1)*lda+k1-1]
	_ = panel[k1*nr-1]
	sseMicro4x8(&c[0], ldc, &a[k0], lda, &panel[k0*nr], k1-k0)
}

// micro1x8 is the one-row variant of micro4x8.
func micro1x8(c, a, panel []float32, k0, k1 int) {
	if k0 >= k1 {
		return
	}
	_ = c[nr-1]
	_ = a[k1-1]
	_ = panel[k1*nr-1]
	sseMicro1x8(&c[0], &a[k0], &panel[k0*nr], k1-k0)
}

//go:noescape
func sseMicro4x8(c *float32, ldc int, a *float32, lda int, b *float32, kc int)

//go:noescape
func sseMicro1x8(c *float32, a *float32, b *float32, kc int)
