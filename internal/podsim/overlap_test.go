package podsim

import "testing"

func TestOverlapHidesMostOfAllReduce(t *testing.T) {
	o, err := ModelStepGradReady("b2", 1024, 32768, 0, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if o.OverlapFraction <= 0.5 {
		t.Fatalf("overlap fraction = %v, want most of the all-reduce hidden", o.OverlapFraction)
	}
	// Speedup is bounded by the all-reduce share itself.
	if s := o.SpeedupPct(); s <= 0 || s > o.AllReducePct() {
		t.Fatalf("speedup %v%% outside (0, %v%%]", s, o.AllReducePct())
	}
}

func TestOverlapDirectionAcrossModels(t *testing.T) {
	// B2 (more comm-bound) gains more from overlap than B5 at the bucket
	// sizes where bandwidth, not per-bucket latency, dominates.
	for _, bucket := range []int{1 << 20, 4 << 20} {
		b2, err := ModelStepGradReady("b2", 1024, 32768, 0, bucket)
		if err != nil {
			t.Fatal(err)
		}
		b5, err := ModelStepGradReady("b5", 1024, 32768, 0, bucket)
		if err != nil {
			t.Fatal(err)
		}
		if b2.SpeedupPct() <= b5.SpeedupPct() {
			t.Fatalf("%d-byte buckets: B2 overlap speedup (%v%%) must exceed B5's (%v%%)", bucket, b2.SpeedupPct(), b5.SpeedupPct())
		}
	}
}

func TestGradReadyTailIsOneBucket(t *testing.T) {
	const mib = 1 << 20
	small, err := ModelStepGradReady("b2", 1024, 32768, 0, mib)
	if err != nil {
		t.Fatal(err)
	}
	big, err := ModelStepGradReady("b2", 1024, 32768, 0, 8*mib)
	if err != nil {
		t.Fatal(err)
	}
	exposed := func(o OverlapResult) float64 {
		return o.AllReduceSeconds * (1 - o.OverlapFraction)
	}
	// The exposed tail is one bucket's collective, so it shrinks with the
	// bucket size ...
	if exposed(small) >= exposed(big) {
		t.Fatalf("1 MiB tail %v must beat 8 MiB tail %v", exposed(small), exposed(big))
	}
	// ... while total busy time grows: more buckets, more α latency.
	if small.AllReduceSeconds <= big.AllReduceSeconds {
		t.Fatalf("1 MiB busy %v must exceed 8 MiB busy %v", small.AllReduceSeconds, big.AllReduceSeconds)
	}
	if small.OverlappedStepSeconds >= small.StepBreakdown.StepSeconds() {
		t.Fatal("overlap must shrink the step")
	}
}

func TestOverlapValidation(t *testing.T) {
	if _, err := ModelStepGradReady("bogus", 1024, 32768, 0, 1<<20); err == nil {
		t.Fatal("unknown model must error")
	}
}

func TestGradReadyValidation(t *testing.T) {
	if _, err := ModelStepGradReady("b2", 1024, 32768, 0, 0); err == nil {
		t.Fatal("zero bucket size must error")
	}
}
