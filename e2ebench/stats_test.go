package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // sorted: 1 2 3 4 5
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {99, 4.96}, {100, 5},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %v", got)
	}
}

// A shed request is +Inf latency: a percentile that reaches it is +Inf, one
// below it is unaffected.
func TestPercentileWithMisses(t *testing.T) {
	xs := []float64{1, 2, 3, math.Inf(1)}
	if got := percentile(xs, 100); !math.IsInf(got, 1) {
		t.Errorf("p100 = %v, want +Inf", got)
	}
	if got := percentile(xs, 90); !math.IsInf(got, 1) {
		t.Errorf("p90 interpolating into a miss = %v, want +Inf", got)
	}
	if got := percentile(xs, 50); got != 2.5 {
		t.Errorf("p50 = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		// Two overlapping children cover [10, 50): 40 ns, not 50.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},
		// A child running past its parent's end is clipped to [90, 100).
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild is not subtracted from the root, only from its parent.
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 40 - 10, 2: 30 - 10, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("span %d self = %d, want %d", id, self[id], want)
		}
	}
	sum := summarize(spans)
	if sum[0].Name != "run" || sum[0].TotalMS != 100e-6 || sum[0].SelfMS != 50e-6 {
		t.Errorf("summary head = %+v", sum[0])
	}
}

func TestTracerParents(t *testing.T) {
	tr := newTracer(true)
	pid, end := tr.Begin("parent", 0)
	_, endChild := tr.Begin("child", pid)
	endChild()
	end()
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].End < spans[1].End {
		t.Fatalf("spans = %+v", spans)
	}
	var off *Tracer
	if id, end := off.Begin("x", 0); id != 0 {
		t.Error("nil tracer returned a span ID")
	} else {
		end()
	}
	if off.Record("x", 0, time.Now(), time.Now()) != 0 || off.Spans() != nil {
		t.Error("nil tracer recorded a span")
	}
}
