package bf16

import (
	"math"
	"testing"
	"testing/quick"
)

func TestExactValuesRoundTrip(t *testing.T) {
	// Values representable in bfloat16 must survive a round trip exactly.
	for _, f := range []float32{0, 1, -1, 0.5, 2, -3.5, 256, 1.0 / 128, 65536, -0.015625} {
		got := Round(f)
		if got != f {
			t.Errorf("Round(%v) = %v, want exact", f, got)
		}
	}
}

func TestSpecialValues(t *testing.T) {
	if !math.IsInf(float64(FromFloat32(float32(math.Inf(1))).Float32()), 1) {
		t.Error("+Inf not preserved")
	}
	if !math.IsInf(float64(FromFloat32(float32(math.Inf(-1))).Float32()), -1) {
		t.Error("-Inf not preserved")
	}
	if !math.IsNaN(float64(FromFloat32(float32(math.NaN())).Float32())) {
		t.Error("NaN not preserved")
	}
	// Signed zero.
	nz := FromFloat32(float32(math.Copysign(0, -1))).Float32()
	if math.Signbit(float64(nz)) != true {
		t.Error("-0 sign lost")
	}
}

func TestRelativeErrorBoundQuick(t *testing.T) {
	f := func(x float32) bool {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return true
		}
		// Skip subnormals, where relative error is unbounded by design,
		// and values beyond bf16's largest normal (≈3.3895e38), which
		// correctly overflow to ±Inf.
		if x != 0 && math.Abs(float64(x)) < 1.2e-38 {
			return true
		}
		if math.Abs(float64(x)) > 3.3895313892515355e38 {
			return math.IsInf(float64(Round(x)), 0) || math.Abs(float64(Round(x))) >= 3.38e38
		}
		r := Round(x)
		if x == 0 {
			return r == 0
		}
		rel := math.Abs(float64(r-x)) / math.Abs(float64(x))
		return rel <= MaxRelError+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRoundIsIdempotentQuick(t *testing.T) {
	f := func(x float32) bool {
		if math.IsNaN(float64(x)) {
			return true
		}
		once := Round(x)
		twice := Round(once)
		return once == twice
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRoundNearestEvenTies(t *testing.T) {
	// 1 + 2^-8 is exactly halfway between 1 (mantissa 0x00) and 1+2^-7
	// (mantissa 0x01); RNE must pick the even mantissa, i.e. 1.
	half := float32(1 + 1.0/256)
	if got := Round(half); got != 1 {
		t.Errorf("RNE tie Round(1+2^-8) = %v, want 1", got)
	}
	// 1 + 3*2^-8 is halfway between mantissa 0x01 and 0x02; even is 0x02.
	half2 := float32(1 + 3.0/256)
	want := float32(1 + 2.0/128)
	if got := Round(half2); got != want {
		t.Errorf("RNE tie Round(1+3*2^-8) = %v, want %v", got, want)
	}
}

func TestTruncateModeBiased(t *testing.T) {
	// Truncation always rounds toward zero for positive values.
	x := float32(1.999999)
	tr := FromFloat32Mode(x, Truncate).Float32()
	rn := FromFloat32Mode(x, RoundNearestEven).Float32()
	if tr > x {
		t.Errorf("Truncate(%v) = %v moved away from zero", x, tr)
	}
	if rn != 2 {
		t.Errorf("RNE(%v) = %v, want 2", x, rn)
	}
}

func TestRoundSlice(t *testing.T) {
	src := []float32{1.0000001, -2.9999, 3, 0}
	dst := make([]float32, len(src))
	RoundSlice(dst, src, 4)
	for i := range src {
		if dst[i] != Round(src[i]) {
			t.Fatalf("RoundSlice[%d] = %v, want %v", i, dst[i], Round(src[i]))
		}
	}
	// In-place aliasing must work.
	RoundSlice(src, src, 4)
	for i := range src {
		if src[i] != dst[i] {
			t.Fatalf("in-place RoundSlice[%d] = %v, want %v", i, src[i], dst[i])
		}
	}
}

func TestRoundSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RoundSlice(make([]float32, 2), make([]float32, 3), 1)
}

func TestMonotonicQuick(t *testing.T) {
	// Rounding must preserve ordering: x <= y implies Round(x) <= Round(y).
	f := func(x, y float32) bool {
		if math.IsNaN(float64(x)) || math.IsNaN(float64(y)) {
			return true
		}
		if x > y {
			x, y = y, x
		}
		return Round(x) <= Round(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
