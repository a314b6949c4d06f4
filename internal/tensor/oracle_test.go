package tensor

// Reference-kernel oracle suite. Every optimized kernel is checked against a
// naive float64 reference over a table + randomized sweep of shapes chosen to
// exercise the blocked GEMM's edges (ragged tile tails, multi-slab k), the
// convolution fast paths (1×1, strided 1×1) and the depthwise interior/
// border split. Tolerances are derived from the accumulation length: an
// ascending float32 sum of k products (fused or not) differs from the exact
// value by at most ~k·eps32 relative to the sum of magnitudes, so we assert
//
//	|got − want64| ≤ (k+2)·eps32·Σ|terms| + tiny
//
// which holds for both the portable kernel and the FMA assembly kernels.
// NaN results must stay NaN (the 0·NaN regression below pins the sparsity-
// skip bugfix).

import (
	"math"
	"math/rand"
	"testing"
)

const eps32 = 1.1920929e-7 // 2^-23

// assertOracle compares kernel output against a float64 oracle value/
// magnitude pair with an accumulation-length-aware tolerance.
func assertOracle(t *testing.T, name string, got []float32, want, mag []float64, k int) {
	t.Helper()
	tol := float64(k+2) * eps32
	for i := range got {
		w := want[i]
		if math.IsNaN(w) {
			if !math.IsNaN(float64(got[i])) {
				t.Fatalf("%s: elem %d = %v, want NaN", name, i, got[i])
			}
			continue
		}
		if math.IsInf(w, 0) {
			if float64(got[i]) != w && !math.IsNaN(float64(got[i])) {
				t.Fatalf("%s: elem %d = %v, want %v", name, i, got[i], w)
			}
			continue
		}
		if diff := math.Abs(float64(got[i]) - w); diff > tol*mag[i]+1e-30 {
			t.Fatalf("%s: elem %d = %v, want %v (|Δ|=%g > %g)", name, i, got[i], w, diff, tol*mag[i])
		}
	}
}

// oracleGEMM computes op(A)@op(B) in float64, returning per-element values
// and magnitudes (Σ|a·b| used for the error bound).
func oracleGEMM(a, b []float32, lda, ldb int, at, bt bool, m, n, k int) (val, mag []float64) {
	val = make([]float64, m*n)
	mag = make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s, ab float64
			for p := 0; p < k; p++ {
				var av, bv float32
				if at {
					av = a[p*lda+i]
				} else {
					av = a[i*lda+p]
				}
				if bt {
					bv = b[j*ldb+p]
				} else {
					bv = b[p*ldb+j]
				}
				prod := float64(av) * float64(bv)
				s += prod
				ab += math.Abs(prod)
			}
			val[i*n+j] = s
			mag[i*n+j] = ab
		}
	}
	return val, mag
}

// oracleConv2D computes a direct convolution in float64 (values+magnitudes).
func oracleConv2D(x, w *Tensor, spec ConvSpec) (val, mag []float64, k int) {
	n, cin, h, wd := x.Dim4()
	cout, _, kh, kw := w.Dim4()
	oh := outSize(h, kh, spec.StrideH, spec.PadH)
	ow := outSize(wd, kw, spec.StrideW, spec.PadW)
	val = make([]float64, n*cout*oh*ow)
	mag = make([]float64, n*cout*oh*ow)
	xd, wdta := x.Data(), w.Data()
	for s := 0; s < n; s++ {
		for co := 0; co < cout; co++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc, ab float64
					for ci := 0; ci < cin; ci++ {
						for i := 0; i < kh; i++ {
							iy := oy*spec.StrideH - spec.PadH + i
							for j := 0; j < kw; j++ {
								ix := ox*spec.StrideW - spec.PadW + j
								var xv float32 // zero padding
								if iy >= 0 && iy < h && ix >= 0 && ix < wd {
									xv = xd[((s*cin+ci)*h+iy)*wd+ix]
								}
								wv := wdta[((co*cin+ci)*kh+i)*kw+j]
								prod := float64(xv) * float64(wv)
								acc += prod
								ab += math.Abs(prod)
							}
						}
					}
					idx := ((s*cout+co)*oh+oy)*ow + ox
					val[idx] = acc
					mag[idx] = ab
				}
			}
		}
	}
	return val, mag, cin * kh * kw
}

// oracleDepthwise is the direct depthwise reference.
func oracleDepthwise(x, w *Tensor, spec ConvSpec) (val, mag []float64, k int) {
	n, c, h, wd := x.Dim4()
	_, _, kh, kw := w.Dim4()
	oh := outSize(h, kh, spec.StrideH, spec.PadH)
	ow := outSize(wd, kw, spec.StrideW, spec.PadW)
	val = make([]float64, n*c*oh*ow)
	mag = make([]float64, n*c*oh*ow)
	xd, wdta := x.Data(), w.Data()
	for nc := 0; nc < n*c; nc++ {
		ch := nc % c
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var acc, ab float64
				for i := 0; i < kh; i++ {
					iy := oy*spec.StrideH - spec.PadH + i
					if iy < 0 || iy >= h {
						continue
					}
					for j := 0; j < kw; j++ {
						ix := ox*spec.StrideW - spec.PadW + j
						if ix < 0 || ix >= wd {
							continue
						}
						prod := float64(xd[(nc*h+iy)*wd+ix]) * float64(wdta[(ch*kh+i)*kw+j])
						acc += prod
						ab += math.Abs(prod)
					}
				}
				val[nc*oh*ow+oy*ow+ox] = acc
				mag[nc*oh*ow+oy*ow+ox] = ab
			}
		}
	}
	return val, mag, kh * kw
}

// runBothKernelPaths runs fn once with the FMA assembly kernels enabled (a
// no-op where unsupported) and once forced onto the portable Go kernel.
func runBothKernelPaths(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	t.Run("fma", fn)
	restore := forceFMA(false)
	defer restore()
	t.Run("portable", fn)
}

func TestMatMulOracleSweep(t *testing.T) {
	cases := []struct{ m, n, k int }{
		{1, 1, 1},     // degenerate
		{3, 5, 2},     // sub-tile everything
		{4, 16, 8},    // exactly one full tile
		{5, 17, 3},    // ragged rows and cols
		{8, 32, 256},  // exactly one k-slab
		{9, 33, 257},  // ragged + multi-slab k
		{12, 20, 300}, // multi-slab with col tail 4
		{33, 17, 9},   // historic regression shapes
		{2, 100, 7},   // wide with 4-col tail
		{130, 40, 64}, // spans two row blocks (gemmMC=128)
		{16, 10, 5},   // col tail < 4
		{64, 64, 64},  // square
	}
	runBothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for _, tc := range cases {
			a := Randn(rng, 1, tc.m, tc.k)
			b := Randn(rng, 1, tc.k, tc.n)
			want, mag := oracleGEMM(a.Data(), b.Data(), tc.k, tc.n, false, false, tc.m, tc.n, tc.k)
			assertOracle(t, "MatMul", MatMul(a, b).Data(), want, mag, tc.k)

			at := Randn(rng, 1, tc.k, tc.m) // stored [K,M]
			wantTA, magTA := oracleGEMM(at.Data(), b.Data(), tc.m, tc.n, true, false, tc.m, tc.n, tc.k)
			assertOracle(t, "MatMulTA", MatMulTA(at, b, nil).Data(), wantTA, magTA, tc.k)

			bt := Randn(rng, 1, tc.n, tc.k) // stored [N,K]
			wantTB, magTB := oracleGEMM(a.Data(), bt.Data(), tc.k, tc.k, false, true, tc.m, tc.n, tc.k)
			assertOracle(t, "MatMulTB", MatMulTB(a, bt, nil).Data(), wantTB, magTB, tc.k)

			// Accumulating MatMulInto: run twice, oracle doubles.
			dst := New(tc.m, tc.n)
			MatMulInto(dst, a, b, false, nil)
			MatMulInto(dst, a, b, true, nil)
			want2 := make([]float64, len(want))
			mag2 := make([]float64, len(mag))
			for i := range want {
				want2[i] = 2 * want[i]
				mag2[i] = 2 * mag[i]
			}
			assertOracle(t, "MatMulInto/acc", dst.Data(), want2, mag2, 2*tc.k)
		}
	})
}

func TestMatMulOracleRandomized(t *testing.T) {
	runBothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for iter := 0; iter < 30; iter++ {
			m := 1 + rng.Intn(70)
			n := 1 + rng.Intn(70)
			k := 1 + rng.Intn(90)
			if iter%7 == 0 {
				k += gemmKC // force multi-slab
			}
			a := Randn(rng, 1, m, k)
			b := Randn(rng, 1, k, n)
			want, mag := oracleGEMM(a.Data(), b.Data(), k, n, false, false, m, n, k)
			assertOracle(t, "MatMul/rand", MatMul(a, b).Data(), want, mag, k)
		}
	})
}

func TestConv2DOracleSweep(t *testing.T) {
	type cc struct {
		name                 string
		n, cin, h, w         int
		cout, kh, kw, stride int
		samePad              bool
	}
	cases := []cc{
		{"3x3_same", 2, 3, 8, 8, 5, 3, 3, 1, true},
		{"3x3_stride2", 2, 4, 9, 7, 6, 3, 3, 2, true}, // odd H/W, stride 2
		{"5x5_same", 1, 2, 11, 11, 3, 5, 5, 1, true},
		{"cin1", 2, 1, 6, 6, 4, 3, 3, 1, true},
		{"1x1_fast", 2, 7, 6, 6, 9, 1, 1, 1, false},    // pointwise fast path
		{"1x1_stride2", 2, 5, 7, 7, 3, 1, 1, 2, false}, // strided 1×1 gather
		{"nopad", 1, 3, 10, 10, 2, 3, 3, 1, false},     // valid conv
		{"ragged", 1, 6, 5, 5, 13, 3, 3, 1, true},      // cout not mult of 4
	}
	runBothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		for _, c := range cases {
			x := Randn(rng, 1, c.n, c.cin, c.h, c.w)
			w := Randn(rng, 1, c.cout, c.cin, c.kh, c.kw)
			spec := ConvSpec{StrideH: c.stride, StrideW: c.stride}
			if c.samePad {
				spec.PadH, spec.PadW = SamePad(c.kh), SamePad(c.kw)
			}
			want, mag, k := oracleConv2D(x, w, spec)
			assertOracle(t, "Conv2D/"+c.name, Conv2D(x, w, spec).Data(), want, mag, k)
		}
	})
}

func TestDepthwiseOracleSweep(t *testing.T) {
	type dc struct {
		name       string
		n, c, h, w int
		k, stride  int
		samePad    bool
	}
	cases := []dc{
		{"3x3_same", 2, 3, 8, 8, 3, 1, true},
		{"3x3_stride2_odd", 2, 4, 9, 7, 3, 2, true},
		{"5x5_same", 1, 2, 11, 9, 5, 1, true},
		{"3x3_nopad", 1, 3, 7, 7, 3, 1, false},  // interior == everything
		{"5x5_stride2", 1, 2, 6, 6, 5, 2, true}, // border-dominated
		{"tiny", 1, 1, 3, 3, 3, 1, true},        // all border
	}
	runBothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for _, c := range cases {
			x := Randn(rng, 1, c.n, c.c, c.h, c.w)
			w := Randn(rng, 1, c.c, 1, c.k, c.k)
			spec := ConvSpec{StrideH: c.stride, StrideW: c.stride}
			if c.samePad {
				spec.PadH, spec.PadW = SamePad(c.k), SamePad(c.k)
			}
			want, mag, k := oracleDepthwise(x, w, spec)
			assertOracle(t, "Depthwise/"+c.name, DepthwiseConv2D(x, w, spec).Data(), want, mag, k)
		}
	})
}

// TestInteriorRange pins the border-split arithmetic the depthwise kernels
// rely on for bounds-check-free interiors.
func TestInteriorRange(t *testing.T) {
	cases := []struct {
		stride, pad, k, in, out int
		lo, hi                  int
	}{
		{1, 1, 3, 8, 8, 1, 7}, // SAME 3×3: rows 1..6 interior
		{2, 1, 3, 9, 5, 1, 4}, // stride 2
		{1, 0, 3, 8, 6, 0, 6}, // VALID: everything interior
		{1, 2, 5, 8, 8, 2, 6}, // SAME 5×5
		{1, 1, 3, 3, 3, 1, 2}, // tiny input
		{1, 1, 3, 2, 2, 1, 1}, // interior empty (hi==lo)
		{2, 2, 5, 6, 3, 1, 2}, // border-dominated
	}
	for _, c := range cases {
		lo, hi := interiorRange(c.stride, c.pad, c.k, c.in, c.out)
		if lo != c.lo || hi != c.hi {
			t.Errorf("interiorRange(s=%d p=%d k=%d in=%d out=%d) = [%d,%d), want [%d,%d)",
				c.stride, c.pad, c.k, c.in, c.out, lo, hi, c.lo, c.hi)
		}
		// Property: every output in [lo,hi) has a fully in-bounds window,
		// and lo-1 / hi (when valid outputs) do not.
		inBounds := func(o int) bool {
			lo0 := o*c.stride - c.pad
			return lo0 >= 0 && lo0+c.k <= c.in
		}
		for o := lo; o < hi; o++ {
			if !inBounds(o) {
				t.Errorf("interiorRange(s=%d p=%d k=%d in=%d out=%d): output %d not interior",
					c.stride, c.pad, c.k, c.in, c.out, o)
			}
		}
		if lo > 0 && inBounds(lo-1) {
			t.Errorf("interiorRange: lo=%d too conservative", lo)
		}
		if hi < c.out && inBounds(hi) {
			t.Errorf("interiorRange: hi=%d too conservative", hi)
		}
	}
}

// TestZeroTimesNaNPropagates is the regression test for the sparsity-skip
// bugfix: the old kernels skipped zero operands, silently converting
// 0·NaN (= NaN) and 0·Inf (= NaN) into 0.
func TestZeroTimesNaNPropagates(t *testing.T) {
	nan32 := float32(math.NaN())
	inf32 := float32(math.Inf(1))
	runBothKernelPaths(t, func(t *testing.T) {
		// MatMul: a row of zeros against NaN/Inf columns.
		a := FromSlice([]float32{0, 0}, 1, 2)
		b := FromSlice([]float32{nan32, 1, inf32, 2}, 2, 2)
		got := MatMul(a, b)
		if !math.IsNaN(float64(got.At(0, 0))) {
			t.Errorf("MatMul 0·NaN = %v, want NaN", got.At(0, 0))
		}
		if !math.IsNaN(float64(got.At(0, 1))) { // 0·1 + 0·2 = 0... column 1 is finite
			// col 1 = 0*1+0*2 = 0: finite is correct.
			_ = got
		}
		if v := got.At(0, 1); v != 0 {
			t.Errorf("MatMul finite column = %v, want 0", v)
		}

		// MatMulTA with zero A against NaN B.
		at := FromSlice([]float32{0, 0}, 2, 1)
		bn := FromSlice([]float32{nan32, 0}, 2, 1)
		if v := MatMulTA(at, bn, nil).At(0, 0); !math.IsNaN(float64(v)) {
			t.Errorf("MatMulTA 0·NaN = %v, want NaN", v)
		}

		// Conv2D: NaN input against a zero weight must still yield NaN.
		x := New(1, 1, 3, 3)
		x.Data()[4] = nan32  // center pixel
		w := New(1, 1, 3, 3) // all-zero kernel
		spec := ConvSpec{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
		out := Conv2D(x, w, spec)
		if v := out.Data()[4]; !math.IsNaN(float64(v)) {
			t.Errorf("Conv2D 0-weight over NaN input = %v, want NaN", v)
		}

		// Depthwise backward: zero upstream gradient over NaN input must
		// produce NaN weight gradients (old code skipped g == 0).
		xn := New(1, 1, 3, 3)
		xn.Data()[0] = nan32
		wd := Randn(rand.New(rand.NewSource(1)), 1, 1, 1, 3, 3)
		dy := New(1, 1, 3, 3) // all-zero upstream grad
		_, dw := DepthwiseConv2DBackward(xn, wd, dy, spec)
		foundNaN := false
		for _, v := range dw.Data() {
			if math.IsNaN(float64(v)) {
				foundNaN = true
			}
		}
		if !foundNaN {
			t.Error("DepthwiseConv2DBackward dropped 0·NaN in dw, want NaN propagation")
		}
	})
}

// TestConv2DBackwardOracle checks input/weight gradients against the direct
// adjoint computed in float64.
func TestConv2DBackwardOracle(t *testing.T) {
	type cc struct {
		name                 string
		n, cin, h, w         int
		cout, kh, kw, stride int
		samePad              bool
	}
	cases := []cc{
		{"3x3_same", 1, 2, 6, 6, 3, 3, 3, 1, true},
		{"3x3_stride2", 1, 3, 7, 7, 4, 3, 3, 2, true},
		{"1x1", 2, 5, 4, 4, 7, 1, 1, 1, false},
		{"1x1_stride2", 1, 4, 5, 5, 3, 1, 1, 2, false},
	}
	runBothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		for _, c := range cases {
			x := Randn(rng, 1, c.n, c.cin, c.h, c.w)
			w := Randn(rng, 1, c.cout, c.cin, c.kh, c.kw)
			spec := ConvSpec{StrideH: c.stride, StrideW: c.stride}
			if c.samePad {
				spec.PadH, spec.PadW = SamePad(c.kh), SamePad(c.kw)
			}
			oh := outSize(c.h, c.kh, spec.StrideH, spec.PadH)
			ow := outSize(c.w, c.kw, spec.StrideW, spec.PadW)
			dy := Randn(rng, 1, c.n, c.cout, oh, ow)
			dx, dw := Conv2DBackward(x, w, dy, spec)

			// Direct adjoint in float64.
			dxW := make([]float64, x.Len())
			dxM := make([]float64, x.Len())
			dwW := make([]float64, w.Len())
			dwM := make([]float64, w.Len())
			xd, wd2, dyd := x.Data(), w.Data(), dy.Data()
			for s := 0; s < c.n; s++ {
				for co := 0; co < c.cout; co++ {
					for oy := 0; oy < oh; oy++ {
						for ox := 0; ox < ow; ox++ {
							g := float64(dyd[((s*c.cout+co)*oh+oy)*ow+ox])
							for ci := 0; ci < c.cin; ci++ {
								for i := 0; i < c.kh; i++ {
									iy := oy*spec.StrideH - spec.PadH + i
									if iy < 0 || iy >= c.h {
										continue
									}
									for j := 0; j < c.kw; j++ {
										ix := ox*spec.StrideW - spec.PadW + j
										if ix < 0 || ix >= c.w {
											continue
										}
										xi := ((s*c.cin+ci)*c.h+iy)*c.w + ix
										wi := ((co*c.cin+ci)*c.kh+i)*c.kw + j
										dxW[xi] += g * float64(wd2[wi])
										dxM[xi] += math.Abs(g * float64(wd2[wi]))
										dwW[wi] += g * float64(xd[xi])
										dwM[wi] += math.Abs(g * float64(xd[xi]))
									}
								}
							}
						}
					}
				}
			}
			kdx := c.cout * c.kh * c.kw
			kdw := c.n * oh * ow
			assertOracle(t, "Conv2DBackward/dx/"+c.name, dx.Data(), dxW, dxM, kdx)
			assertOracle(t, "Conv2DBackward/dw/"+c.name, dw.Data(), dwW, dwM, kdw)
		}
	})
}

// TestIm2ColAdjointProperty verifies ⟨col2im(c), x⟩ == ⟨c, im2col(x)⟩: the
// two routines are exact adjoints, which is what makes the im2col-based
// backward pass the true gradient of the im2col-based forward.
func TestIm2ColAdjointProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 20; iter++ {
		cin := 1 + rng.Intn(4)
		h := 3 + rng.Intn(8)
		w := 3 + rng.Intn(8)
		kh := 1 + rng.Intn(3)
		kw := 1 + rng.Intn(3)
		stride := 1 + rng.Intn(2)
		spec := ConvSpec{StrideH: stride, StrideW: stride, PadH: SamePad(kh), PadW: SamePad(kw)}
		oh := outSize(h, kh, spec.StrideH, spec.PadH)
		ow := outSize(w, kw, spec.StrideW, spec.PadW)
		if oh <= 0 || ow <= 0 {
			continue
		}
		x := Randn(rng, 1, 1, cin, h, w)
		colLen := cin * kh * kw * oh * ow
		c := make([]float32, colLen)
		for i := range c {
			c[i] = float32(rng.NormFloat64())
		}
		col := make([]float32, colLen)
		im2col(col, x.Data(), cin, h, w, kh, kw, oh, ow, spec)
		var lhs float64
		for i := range c {
			lhs += float64(c[i]) * float64(col[i])
		}
		back := make([]float32, cin*h*w)
		col2im(back, c, cin, h, w, kh, kw, oh, ow, spec)
		var rhs float64
		for i := range back {
			rhs += float64(back[i]) * float64(x.Data()[i])
		}
		if math.Abs(lhs-rhs) > 1e-3*(math.Abs(lhs)+1) {
			t.Fatalf("adjoint mismatch: ⟨c, im2col(x)⟩=%g vs ⟨col2im(c), x⟩=%g", lhs, rhs)
		}
	}
}

// TestDepthwiseBackwardBorderOracle extends gradient coverage to border
// cases of DepthwiseConv2DBackward (previously untested): strided odd
// inputs where the interior is empty or a single row.
func TestDepthwiseBackwardBorderOracle(t *testing.T) {
	type dc struct {
		name       string
		n, c, h, w int
		k, stride  int
	}
	cases := []dc{
		{"all_border_3x3", 1, 2, 3, 3, 3, 1},
		{"thin_rows", 1, 1, 2, 9, 3, 1},
		{"stride2_odd", 2, 3, 9, 7, 3, 2},
		{"k5_small", 1, 2, 5, 5, 5, 1},
		{"stride2_k5", 1, 1, 7, 7, 5, 2},
	}
	runBothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(29))
		for _, c := range cases {
			x := Randn(rng, 1, c.n, c.c, c.h, c.w)
			w := Randn(rng, 1, c.c, 1, c.k, c.k)
			spec := ConvSpec{StrideH: c.stride, StrideW: c.stride, PadH: SamePad(c.k), PadW: SamePad(c.k)}
			oh := outSize(c.h, c.k, spec.StrideH, spec.PadH)
			ow := outSize(c.w, c.k, spec.StrideW, spec.PadW)
			dy := Randn(rng, 1, c.n, c.c, oh, ow)
			dx, dw := DepthwiseConv2DBackward(x, w, dy, spec)

			dxW := make([]float64, x.Len())
			dxM := make([]float64, x.Len())
			dwW := make([]float64, w.Len())
			dwM := make([]float64, w.Len())
			xd, wd2, dyd := x.Data(), w.Data(), dy.Data()
			for nc := 0; nc < c.n*c.c; nc++ {
				ch := nc % c.c
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						g := float64(dyd[nc*oh*ow+oy*ow+ox])
						for i := 0; i < c.k; i++ {
							iy := oy*spec.StrideH - spec.PadH + i
							if iy < 0 || iy >= c.h {
								continue
							}
							for j := 0; j < c.k; j++ {
								ix := ox*spec.StrideW - spec.PadW + j
								if ix < 0 || ix >= c.w {
									continue
								}
								xi := (nc*c.h+iy)*c.w + ix
								wi := (ch*c.k+i)*c.k + j
								dxW[xi] += g * float64(wd2[wi])
								dxM[xi] += math.Abs(g * float64(wd2[wi]))
								dwW[wi] += g * float64(xd[xi])
								dwM[wi] += math.Abs(g * float64(xd[xi]))
							}
						}
					}
				}
			}
			assertOracle(t, "DepthwiseBackward/dx/"+c.name, dx.Data(), dxW, dxM, c.k*c.k)
			assertOracle(t, "DepthwiseBackward/dw/"+c.name, dw.Data(), dwW, dwM, c.n*oh*ow)
		}
	})
}

// TestZeroInputsExact: all-zero inputs must produce exactly zero outputs on
// every path (packing must not leak garbage from pooled buffers).
func TestZeroInputsExact(t *testing.T) {
	runBothKernelPaths(t, func(t *testing.T) {
		a := New(5, 300) // multi-slab k
		b := New(300, 17)
		for _, v := range MatMul(a, b).Data() {
			if v != 0 {
				t.Fatalf("MatMul of zeros = %v, want exact 0", v)
			}
		}
		x := New(2, 3, 8, 8)
		w := New(4, 3, 3, 3)
		spec := ConvSpec{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
		for _, v := range Conv2D(x, w, spec).Data() {
			if v != 0 {
				t.Fatalf("Conv2D of zeros = %v, want exact 0", v)
			}
		}
	})
}
