//go:build !amd64

package tensor

// Portable GEMM microkernels for every architecture without an assembly
// kernel. Each of the 32 scalar accumulators is loaded from C, advances in
// strictly ascending k and is stored back, so the kernels are bit-exact
// with the naive triple loop.

// micro4x8 updates the 4×8 tile c[r*ldc+j] (r < mr, j < nr) with
// a[r*lda+kk] · panel[kk*nr+j] for kk in [k0, k1), ascending. Strides are
// non-negative.
func micro4x8(c []float32, ldc int, a []float32, lda int, panel []float32, k0, k1 int) {
	if k0 >= k1 {
		return
	}
	a0 := a[:k1]
	a1 := a[lda : lda+k1]
	a2 := a[2*lda : 2*lda+k1]
	a3 := a[3*lda : 3*lda+k1]
	c0 := c[:nr]
	c1 := c[ldc : ldc+nr]
	c2 := c[2*ldc : 2*ldc+nr]
	c3 := c[3*ldc : 3*ldc+nr]
	c00, c01, c02, c03, c04, c05, c06, c07 := c0[0], c0[1], c0[2], c0[3], c0[4], c0[5], c0[6], c0[7]
	c10, c11, c12, c13, c14, c15, c16, c17 := c1[0], c1[1], c1[2], c1[3], c1[4], c1[5], c1[6], c1[7]
	c20, c21, c22, c23, c24, c25, c26, c27 := c2[0], c2[1], c2[2], c2[3], c2[4], c2[5], c2[6], c2[7]
	c30, c31, c32, c33, c34, c35, c36, c37 := c3[0], c3[1], c3[2], c3[3], c3[4], c3[5], c3[6], c3[7]
	for kk := k0; kk < k1; kk++ {
		p := panel[kk*nr : kk*nr+nr]
		b0, b1, b2, b3, b4, b5, b6, b7 := p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7]
		av := a0[kk]
		c00 += av * b0
		c01 += av * b1
		c02 += av * b2
		c03 += av * b3
		c04 += av * b4
		c05 += av * b5
		c06 += av * b6
		c07 += av * b7
		av = a1[kk]
		c10 += av * b0
		c11 += av * b1
		c12 += av * b2
		c13 += av * b3
		c14 += av * b4
		c15 += av * b5
		c16 += av * b6
		c17 += av * b7
		av = a2[kk]
		c20 += av * b0
		c21 += av * b1
		c22 += av * b2
		c23 += av * b3
		c24 += av * b4
		c25 += av * b5
		c26 += av * b6
		c27 += av * b7
		av = a3[kk]
		c30 += av * b0
		c31 += av * b1
		c32 += av * b2
		c33 += av * b3
		c34 += av * b4
		c35 += av * b5
		c36 += av * b6
		c37 += av * b7
	}
	c0[0], c0[1], c0[2], c0[3], c0[4], c0[5], c0[6], c0[7] = c00, c01, c02, c03, c04, c05, c06, c07
	c1[0], c1[1], c1[2], c1[3], c1[4], c1[5], c1[6], c1[7] = c10, c11, c12, c13, c14, c15, c16, c17
	c2[0], c2[1], c2[2], c2[3], c2[4], c2[5], c2[6], c2[7] = c20, c21, c22, c23, c24, c25, c26, c27
	c3[0], c3[1], c3[2], c3[3], c3[4], c3[5], c3[6], c3[7] = c30, c31, c32, c33, c34, c35, c36, c37
}

// micro1x8 is the one-row variant of micro4x8.
func micro1x8(c, a, panel []float32, k0, k1 int) {
	if k0 >= k1 {
		return
	}
	a0 := a[:k1]
	c0 := c[:nr]
	c00, c01, c02, c03, c04, c05, c06, c07 := c0[0], c0[1], c0[2], c0[3], c0[4], c0[5], c0[6], c0[7]
	for kk := k0; kk < k1; kk++ {
		p := panel[kk*nr : kk*nr+nr]
		av := a0[kk]
		c00 += av * p[0]
		c01 += av * p[1]
		c02 += av * p[2]
		c03 += av * p[3]
		c04 += av * p[4]
		c05 += av * p[5]
		c06 += av * p[6]
		c07 += av * p[7]
	}
	c0[0], c0[1], c0[2], c0[3], c0[4], c0[5], c0[6], c0[7] = c00, c01, c02, c03, c04, c05, c06, c07
}
