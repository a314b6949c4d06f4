package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzMatMulShapes drives the blocked GEMM (and its transposed variants)
// through arbitrary shapes — ragged micro-tile tails, multi-slab k, single
// rows/columns — and checks every element against the float64 triple-loop
// oracle. Shapes are derived from the fuzz inputs by clamping, so every
// byte sequence maps to a valid case.
func FuzzMatMulShapes(f *testing.F) {
	f.Add(uint16(4), uint16(16), uint16(8), int64(1))
	f.Add(uint16(1), uint16(1), uint16(1), int64(2))
	f.Add(uint16(5), uint16(17), uint16(300), int64(3)) // k > gemmKC, ragged tails
	f.Add(uint16(130), uint16(40), uint16(64), int64(4))
	f.Add(uint16(3), uint16(5), uint16(2), int64(5))
	f.Fuzz(func(t *testing.T, mRaw, nRaw, kRaw uint16, seed int64) {
		m := 1 + int(mRaw)%96
		n := 1 + int(nRaw)%96
		k := 1 + int(kRaw)%(gemmKC+40)
		rng := rand.New(rand.NewSource(seed))

		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		want, mag := oracleGEMM(a.Data(), b.Data(), k, n, false, false, m, n, k)
		assertOracle(t, "MatMul", MatMul(a, b).Data(), want, mag, k)

		at := Randn(rng, 1, k, m)
		want, mag = oracleGEMM(at.Data(), b.Data(), m, n, true, false, m, n, k)
		assertOracle(t, "MatMulTA", MatMulTA(at, b, nil).Data(), want, mag, k)

		bt := Randn(rng, 1, n, k)
		want, mag = oracleGEMM(a.Data(), bt.Data(), k, k, false, true, m, n, k)
		assertOracle(t, "MatMulTB", MatMulTB(a, bt, nil).Data(), want, mag, k)
	})
}

// FuzzConv2DOracle checks Conv2D (including the 1×1 fast paths, which the
// clamped shape space reaches whenever kh=kw=1) against the direct float64
// convolution oracle over fuzzed geometry: stride 1-3, pad 0-3, odd spatial
// sizes, cin=1, ragged cout.
func FuzzConv2DOracle(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(5), uint8(7), uint8(7), uint8(3), uint8(3), uint8(1), uint8(1), int64(1))
	f.Add(uint8(1), uint8(4), uint8(8), uint8(8), uint8(8), uint8(1), uint8(1), uint8(1), uint8(0), int64(2)) // 1×1 fast path
	f.Add(uint8(2), uint8(4), uint8(6), uint8(9), uint8(9), uint8(1), uint8(1), uint8(2), uint8(0), int64(3)) // strided 1×1
	f.Add(uint8(1), uint8(1), uint8(13), uint8(5), uint8(11), uint8(3), uint8(2), uint8(2), uint8(1), int64(4))
	f.Fuzz(func(t *testing.T, nRaw, cinRaw, coutRaw, hRaw, wRaw, khRaw, kwRaw, strideRaw, padRaw uint8, seed int64) {
		n := 1 + int(nRaw)%3
		cin := 1 + int(cinRaw)%8
		cout := 1 + int(coutRaw)%13
		h := 1 + int(hRaw)%12
		w := 1 + int(wRaw)%12
		kh := 1 + int(khRaw)%4
		kw := 1 + int(kwRaw)%4
		stride := 1 + int(strideRaw)%3
		pad := int(padRaw) % 4
		// Keep the padding sane: a kernel that can sit entirely in the pad
		// region only ever reads zeros, which is legal but uninteresting.
		if pad >= kh && pad >= kw {
			pad = kh - 1
		}
		spec := ConvSpec{StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
		if outSize(h, kh, stride, pad) <= 0 || outSize(w, kw, stride, pad) <= 0 {
			t.Skip("empty output")
		}
		rng := rand.New(rand.NewSource(seed))
		x := Randn(rng, 1, n, cin, h, w)
		wt := Randn(rng, 1, cout, cin, kh, kw)
		want, mag, k := oracleConv2D(x, wt, spec)
		assertOracle(t, "Conv2D", Conv2D(x, wt, spec).Data(), want, mag, k)
	})
}

// FuzzIm2ColAdjoint checks the defining adjoint property of the im2col /
// col2im pair over fuzzed geometry: for all x and c,
// ⟨c, im2col(x)⟩ == ⟨col2im(c), x⟩. Conv2DBackward's dx path is col2im of
// a GEMM result, so this pins the lowering's correctness independently of
// any convolution oracle.
func FuzzIm2ColAdjoint(f *testing.F) {
	f.Add(uint8(3), uint8(6), uint8(6), uint8(3), uint8(3), uint8(1), uint8(1), int64(1))
	f.Add(uint8(1), uint8(5), uint8(9), uint8(2), uint8(4), uint8(2), uint8(0), int64(2))
	f.Add(uint8(2), uint8(7), uint8(3), uint8(3), uint8(1), uint8(3), uint8(2), int64(3))
	f.Fuzz(func(t *testing.T, cinRaw, hRaw, wRaw, khRaw, kwRaw, strideRaw, padRaw uint8, seed int64) {
		cin := 1 + int(cinRaw)%6
		h := 1 + int(hRaw)%10
		w := 1 + int(wRaw)%10
		kh := 1 + int(khRaw)%4
		kw := 1 + int(kwRaw)%4
		stride := 1 + int(strideRaw)%3
		pad := int(padRaw) % 3
		spec := ConvSpec{StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
		oh := outSize(h, kh, stride, pad)
		ow := outSize(w, kw, stride, pad)
		if oh <= 0 || ow <= 0 {
			t.Skip("empty output")
		}
		rng := rand.New(rand.NewSource(seed))
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
	})
}
