package parallel

import (
	"bytes"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// gid returns the current goroutine's id (test-only; parsed from the stack
// header "goroutine N [...").
func gid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	if i := bytes.IndexByte(buf, ' '); i >= 0 {
		buf = buf[:i]
	}
	return string(buf)
}

func TestForChunkedSingleChunkRunsInline(t *testing.T) {
	// n <= grain means one chunk: it must run on the calling goroutine, not
	// pay goroutine+WaitGroup overhead. (Regression: the old heuristic
	// n*grain <= minGrain made a larger grain MORE likely to spawn.)
	caller := gid()
	for _, c := range []struct{ n, grain int }{{2, 4096}, {300, 300}, {1, 1}, {256, 1024}} {
		calls := 0
		ForChunked(MaxWorkers(), c.n, c.grain, func(lo, hi int) {
			calls++
			if lo != 0 || hi != c.n {
				t.Errorf("n=%d grain=%d: chunk [%d,%d), want [0,%d)", c.n, c.grain, lo, hi, c.n)
			}
			if g := gid(); g != caller {
				t.Errorf("n=%d grain=%d: ran on goroutine %s, want inline on %s", c.n, c.grain, g, caller)
			}
		})
		if calls != 1 {
			t.Errorf("n=%d grain=%d: %d body calls, want 1", c.n, c.grain, calls)
		}
	}
}

func TestForChunkedRespectsGrain(t *testing.T) {
	// When it does go parallel, every chunk except the last must hold at
	// least grain iterations.
	const n, grain = 10000, 64
	var minSeen atomic.Int64
	minSeen.Store(n)
	var last atomic.Int64
	ForChunked(MaxWorkers(), n, grain, func(lo, hi int) {
		if hi == n {
			last.Store(int64(hi - lo))
			return
		}
		for {
			cur := minSeen.Load()
			if int64(hi-lo) >= cur || minSeen.CompareAndSwap(cur, int64(hi-lo)) {
				break
			}
		}
	})
	if minSeen.Load() < grain {
		t.Fatalf("non-final chunk of %d iterations, want >= %d", minSeen.Load(), grain)
	}
}

func TestForSmallLoopRunsInline(t *testing.T) {
	caller := gid()
	For(MaxWorkers(), 100, func(i int) {
		if g := gid(); g != caller {
			t.Fatalf("For(100) iteration ran on goroutine %s, want inline", g)
		}
	})
}

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 255, 256, 1000, 4096} {
		seen := make([]int32, n)
		For(MaxWorkers(), n, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForChunkedExactPartition(t *testing.T) {
	f := func(n uint16, grain uint8) bool {
		nn := int(n) % 5000
		var total int64
		ForChunked(MaxWorkers(), nn, int(grain), func(lo, hi int) {
			if lo < 0 || hi > nn || lo > hi {
				t.Fatalf("bad chunk [%d,%d) for n=%d", lo, hi, nn)
			}
			atomic.AddInt64(&total, int64(hi-lo))
		})
		return total == int64(nn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// sumSpan is a ReduceFloat64 body summing f over a span left to right.
func sumSpan(f func(i int) float64) func(lo, hi int) float64 {
	return func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += f(i)
		}
		return s
	}
}

func TestReduceFloat64MatchesSerial(t *testing.T) {
	for _, n := range []int{0, 1, 100, 257, 10000} {
		got := ReduceFloat64(MaxWorkers(), n, sumSpan(func(i int) float64 { return float64(i) }))
		want := float64(n) * float64(n-1) / 2
		if n == 0 {
			want = 0
		}
		if got != want {
			t.Fatalf("ReduceFloat64(n=%d) = %v, want %v", n, got, want)
		}
	}
}

func TestReduceDeterministic(t *testing.T) {
	// Floating-point reduction must be reproducible run-to-run because
	// partials are combined in chunk-index order.
	body := sumSpan(func(i int) float64 { return 1.0 / float64(i+1) })
	a := ReduceFloat64(MaxWorkers(), 100000, body)
	for k := 0; k < 5; k++ {
		if b := ReduceFloat64(MaxWorkers(), 100000, body); b != a {
			t.Fatalf("nondeterministic reduction: %v vs %v", a, b)
		}
	}
}

func TestReduceFloat64IndependentOfWorkers(t *testing.T) {
	// The spans are fixed by n, so every worker count sums the same
	// partials in the same order: bit-identical results. Terms of mixed
	// magnitude make any regrouping change the rounding.
	body := sumSpan(func(i int) float64 { return float64(i%97) * math.Pow(10, float64(i%13-6)) })
	for _, n := range []int{1, 2047, 2048, 2049, 4096, 100003} {
		want := ReduceFloat64(1, n, body)
		for _, w := range []int{2, 3, 8, 64} {
			if got := ReduceFloat64(w, n, body); got != want {
				t.Errorf("n=%d: %d workers sum to %v, 1 worker to %v", n, w, got, want)
			}
		}
	}
}

func TestSetMaxWorkers(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	if MaxWorkers() != 1 {
		t.Fatal("SetMaxWorkers(1) not applied")
	}
	var ran int
	For(MaxWorkers(), 1000, func(i int) { ran++ }) // safe: single worker means serial
	if ran != 1000 {
		t.Fatalf("serial run visited %d of 1000", ran)
	}
	if got := SetMaxWorkers(0); got != 1 {
		t.Fatalf("SetMaxWorkers returned %d, want previous value 1", got)
	}
	if MaxWorkers() < 1 {
		t.Fatal("reset worker count must be >= 1")
	}
}

func TestDoRunsAll(t *testing.T) {
	var a, b, c atomic.Int32
	Do(
		func() { a.Store(1) },
		func() { b.Store(2) },
		func() { c.Store(3) },
	)
	if a.Load() != 1 || b.Load() != 2 || c.Load() != 3 {
		t.Fatal("Do did not run all functions")
	}
	Do(func() { a.Store(10) }) // single-function fast path
	if a.Load() != 10 {
		t.Fatal("Do single-function path failed")
	}
}
