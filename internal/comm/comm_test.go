package comm

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"effnetscale/internal/topology"
)

// runWorld drives body(rank, peer) on n goroutines and waits.
func runWorld(n int, body func(rank int, p *Peer)) {
	w := NewWorld(n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			body(r, w.Peer(r))
		}(r)
	}
	wg.Wait()
}

// runCollectives drives body(rank, colls[rank]) on len(colls) goroutines.
func runCollectives(colls []Collective, body func(rank int, c Collective)) {
	var wg sync.WaitGroup
	for r := range colls {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			body(r, colls[r])
		}(r)
	}
	wg.Wait()
}

func TestRingAllReduceMatchesSequentialSum(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		for _, l := range []int{1, 5, 16, 100, 1037} {
			rng := rand.New(rand.NewSource(int64(n*1000 + l)))
			inputs := make([][]float32, n)
			want := make([]float64, l)
			for r := 0; r < n; r++ {
				inputs[r] = make([]float32, l)
				for i := range inputs[r] {
					inputs[r][i] = float32(rng.NormFloat64())
					want[i] += float64(inputs[r][i])
				}
			}
			results := make([][]float32, n)
			runWorld(n, func(rank int, p *Peer) {
				buf := append([]float32(nil), inputs[rank]...)
				ringAllReduce(p, buf)
				results[rank] = buf
			})
			for r := 0; r < n; r++ {
				for i := range want {
					if math.Abs(float64(results[r][i])-want[i]) > 1e-4*(1+math.Abs(want[i])) {
						t.Fatalf("n=%d l=%d rank %d elem %d: got %v, want %v", n, l, r, i, results[r][i], want[i])
					}
				}
			}
			// Bitwise consistency across ranks: every replica must hold
			// exactly the same weights after the gradient all-reduce, or
			// replicas drift apart step by step.
			for r := 1; r < n; r++ {
				for i := range results[0] {
					if results[r][i] != results[0][i] {
						t.Fatalf("n=%d l=%d: ranks 0 and %d disagree bitwise at %d", n, l, r, i)
					}
				}
			}
		}
	}
}

func TestRingAllReduceF64PropertyQuick(t *testing.T) {
	f := func(seed int64, nRaw, lRaw uint8) bool {
		n := int(nRaw)%6 + 1
		l := int(lRaw)%40 + 1
		rng := rand.New(rand.NewSource(seed))
		inputs := make([][]float64, n)
		want := make([]float64, l)
		for r := range inputs {
			inputs[r] = make([]float64, l)
			for i := range inputs[r] {
				inputs[r][i] = rng.NormFloat64()
				want[i] += inputs[r][i]
			}
		}
		ok := true
		var mu sync.Mutex
		runWorld(n, func(rank int, p *Peer) {
			buf := append([]float64(nil), inputs[rank]...)
			ringAllReduce(p, buf)
			for i := range want {
				if math.Abs(buf[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					mu.Lock()
					ok = false
					mu.Unlock()
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAllReduceScalar(t *testing.T) {
	n := 5
	colls, err := RingProvider().Connect(n)
	if err != nil {
		t.Fatal(err)
	}
	runCollectives(colls, func(rank int, c Collective) {
		got := AllReduceScalar(c, float64(rank+1))
		if got != 15 { // 1+2+3+4+5
			t.Errorf("rank %d: scalar all-reduce = %v, want 15", rank, got)
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	n := 8
	var phase [8]int32
	runWorld(n, func(rank int, p *Peer) {
		phase[rank] = 1
		p.Barrier()
		// After the barrier, every rank must have set phase 1.
		for r := 0; r < n; r++ {
			if phase[r] != 1 {
				t.Errorf("rank %d passed barrier before rank %d arrived", rank, r)
			}
		}
		p.Barrier()
	})
}

func TestSingleRankCollectivesNoop(t *testing.T) {
	runWorld(1, func(rank int, p *Peer) {
		buf := []float32{1, 2, 3}
		ringAllReduce(p, buf)
		if buf[0] != 1 || buf[2] != 3 {
			t.Error("single-rank all-reduce must be identity")
		}
		p.Barrier()
	})
}

func TestPeerRankValidation(t *testing.T) {
	w := NewWorld(2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Peer() must panic")
		}
	}()
	w.Peer(2)
}

func TestChunkBoundsCoverExactly(t *testing.T) {
	f := func(lRaw uint16, nRaw uint8) bool {
		l := int(lRaw) % 5000
		n := int(nRaw)%32 + 1
		prev := 0
		for i := 0; i < n; i++ {
			lo, hi := chunkBounds(l, n, i)
			if lo != prev || hi < lo {
				return false
			}
			prev = hi
		}
		return prev == l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// rankPool drives one persistent goroutine per endpoint, so that a test
// counts the collective's own allocations rather than those of starting n
// goroutines per call.
type rankPool struct {
	start []chan func(rank int, c Collective)
	done  chan struct{}
}

func newRankPool(colls []Collective) *rankPool {
	p := &rankPool{start: make([]chan func(int, Collective), len(colls)), done: make(chan struct{}, len(colls))}
	for r := range colls {
		p.start[r] = make(chan func(int, Collective))
		go func(r int) {
			for body := range p.start[r] {
				body(r, colls[r])
				p.done <- struct{}{}
			}
		}(r)
	}
	return p
}

// run has every rank call body once and waits for all of them.
func (p *rankPool) run(body func(rank int, c Collective)) {
	for _, s := range p.start {
		s <- body
	}
	for range p.start {
		<-p.done
	}
}

func (p *rankPool) close() {
	for _, s := range p.start {
		close(s)
	}
}

func TestWarmWorldAllocatesNothing(t *testing.T) {
	// Once every rank's fold scratch has grown to the payload, collectives
	// allocate nothing. ReduceScatter is left out: it returns a fresh slice
	// by contract.
	const n, l = 8, 1031
	bufs := make([][]float32, n)
	bufs64 := make([][]float64, n)
	outs := make([][]float32, n)
	for r := 0; r < n; r++ {
		bufs[r] = make([]float32, l)
		bufs64[r] = make([]float64, l)
		outs[r] = make([]float32, n*l)
	}
	body := func(rank int, c Collective) {
		c.AllReduce(bufs[rank])
		c.AllReduceF64(bufs64[rank])
		c.AllGather(bufs[rank], outs[rank])
		c.Broadcast(bufs[rank], n-1)
		c.Barrier()
	}
	for _, prov := range allProviders() {
		pool := newRankPool(connectOrFatal(t, prov, n))
		pool.run(body)
		if allocs := testing.AllocsPerRun(20, func() { pool.run(body) }); allocs != 0 {
			t.Errorf("%s: %v allocs per warm round of collectives, want 0", prov.Name(), allocs)
		}
		pool.close()
	}
}

func TestStressAllOpsBackToBack(t *testing.T) {
	// All six operations back to back for many rounds, payload length
	// changing every round, on every provider. Inputs are small integers so
	// every fold order sums them exactly and each round checks its own
	// totals — a rank that read a buffer of the wrong round, or a result
	// scratch its owner had already overwritten, shows up as a wrong sum
	// (and under -race as a data race).
	const rounds = 1000
	for _, prov := range allProviders() {
		for _, n := range []int{2, 3, 8} {
			colls := connectOrFatal(t, prov, n)
			pool := newRankPool(colls)
			failed := make([]string, n)
			pool.run(func(r int, c Collective) {
				fail := func(format string, args ...any) {
					if failed[r] == "" {
						failed[r] = fmt.Sprintf(format, args...)
					}
				}
				for round := 0; round < rounds; round++ {
					l := 1 + (round*7)%41
					// Σ_r (r + i + round) over n ranks.
					want := func(i int) float64 { return float64(n*(n-1)/2 + n*(i+round)) }
					buf := make([]float32, l)
					buf64 := make([]float64, l)
					for i := range buf {
						buf[i] = float32(r + i + round)
						buf64[i] = float64(r + i + round)
					}
					c.AllReduce(buf)
					c.AllReduceF64(buf64)
					for i := range buf {
						if float64(buf[i]) != want(i) || buf64[i] != want(i) {
							fail("round %d: all-reduce [%d] = %v / %v, want %v", round, i, buf[i], buf64[i], want(i))
						}
					}
					local := []float32{float32(r), float32(round)}
					out := make([]float32, 2*n)
					c.AllGather(local, out)
					for src := 0; src < n; src++ {
						if out[2*src] != float32(src) || out[2*src+1] != float32(round) {
							fail("round %d: all-gather block %d = %v", round, src, out[2*src:2*src+2])
						}
					}
					rs := make([]float32, l)
					for i := range rs {
						rs[i] = float32(r + i + round)
					}
					lo, _ := chunkBounds(l, n, (r+1)%n)
					for i, v := range c.ReduceScatter(rs) {
						if float64(v) != want(lo+i) {
							fail("round %d: reduce-scatter [%d] = %v, want %v", round, lo+i, v, want(lo+i))
						}
					}
					root := round % n
					bc := []float32{float32(r), float32(round)}
					c.Broadcast(bc, root)
					if bc[0] != float32(root) || bc[1] != float32(round) {
						fail("round %d: broadcast from %d = %v", round, root, bc)
					}
					c.Barrier()
				}
			})
			pool.close()
			for r, msg := range failed {
				if msg != "" {
					t.Errorf("%s n=%d rank %d: %s", prov.Name(), n, r, msg)
				}
			}
		}
	}
}

func TestLengthMismatchPanicsOnEveryRank(t *testing.T) {
	// A rank that passes a buffer of a different length must not corrupt
	// or deadlock the world silently: every rank panics with the message
	// of the collective that caught it.
	for _, tc := range []struct {
		name string
		prov Provider
		n    int
		op   func(c Collective, l int)
		want string
	}{
		{"ring allreduce", RingProvider(), 3, func(c Collective, l int) { c.AllReduce(make([]float32, l)) },
			"comm: ring reduce-scatter buffer length mismatch across ranks"},
		{"ring allreduce f64", RingProvider(), 3, func(c Collective, l int) { c.AllReduceF64(make([]float64, l)) },
			"comm: ring reduce-scatter buffer length mismatch across ranks"},
		{"tree allreduce", TreeProvider(), 4, func(c Collective, l int) { c.AllReduce(make([]float32, l)) },
			"comm: tree all-reduce buffer length mismatch across ranks"},
		{"reduce-scatter", RingProvider(), 3, func(c Collective, l int) { c.ReduceScatter(make([]float32, l)) },
			"comm: ring reduce-scatter buffer length mismatch across ranks"},
		{"all-gather", RingProvider(), 3, func(c Collective, l int) { c.AllGather(make([]float32, l), make([]float32, 3*l)) },
			"comm: all-gather buffer length mismatch across ranks"},
		{"broadcast", RingProvider(), 3, func(c Collective, l int) { c.Broadcast(make([]float32, l), 0) },
			"comm: broadcast buffer length mismatch across ranks"},
	} {
		got := make([]any, tc.n)
		runCollectives(connectOrFatal(t, tc.prov, tc.n), func(r int, c Collective) {
			defer func() { got[r] = recover() }()
			l := 4
			if r == 0 {
				l = 5
			}
			tc.op(c, l)
		})
		for r, msg := range got {
			if msg != tc.want {
				t.Errorf("%s: rank %d panicked with %v, want %q", tc.name, r, msg, tc.want)
			}
		}
	}
}

// --- Cost-model tests -------------------------------------------------------

func TestRingCostMonotoneInBytes(t *testing.T) {
	lp := TPUv3Links
	if RingAllReduceSeconds(1<<20, 8, lp) >= RingAllReduceSeconds(1<<24, 8, lp) {
		t.Fatal("ring cost must grow with payload")
	}
	if RingAllReduceSeconds(1<<20, 1, lp) != 0 {
		t.Fatal("single-node all-reduce must be free")
	}
}

func TestRingCostApproachesBandwidthBound(t *testing.T) {
	// For large payloads, time ≈ 2B/bw regardless of n (the (n−1)/n factor
	// saturates) — this is why the paper's all-reduce percentage stays
	// nearly flat from 128 to 1024 cores.
	lp := LinkParams{BandwidthGBs: 50, LatencyUS: 0}
	b := 100 << 20
	t64 := RingAllReduceSeconds(b, 64, lp)
	t1024 := RingAllReduceSeconds(b, 1024, lp)
	if t1024 < t64 {
		t.Fatal("cost must be nondecreasing in n at zero latency")
	}
	if t1024 > t64*1.05 {
		t.Fatalf("ring cost must saturate: t64=%v t1024=%v", t64, t1024)
	}
}

func TestTorus2DCheaperThanFlatRingForLargeSlices(t *testing.T) {
	// With per-hop latency, the 2-D hierarchical algorithm beats a flat
	// ring over all chips (fewer, shorter phases) — the reason pods use it.
	lp := LinkParams{BandwidthGBs: 45, LatencyUS: 1.5}
	slice, err := topology.SliceForCores(1024)
	if err != nil {
		t.Fatal(err)
	}
	bytes := 36 << 20
	flat := RingAllReduceSeconds(bytes, slice.Chips(), lp)
	hier := Torus2DAllReduceSeconds(bytes, slice, lp)
	if hier >= flat {
		t.Fatalf("2-D torus all-reduce (%v) must beat flat ring (%v) at 512 chips", hier, flat)
	}
}

func TestGroupAllReduceDiameterMatters(t *testing.T) {
	// Same group size, smaller diameter (2-D tile) must cost no more than a
	// long 1-D run — quantifying §3.4's tiling rationale.
	lp := TPUv3Links
	bytes := 4096                                      // per-channel stats are small
	compact := GroupAllReduceSeconds(bytes, 32, 8, lp) // 2-D tile: diameter ~8
	strung := GroupAllReduceSeconds(bytes, 32, 31, lp) // 1-D run: diameter 31
	if compact >= strung {
		t.Fatalf("compact group (%v) must be cheaper than strung-out group (%v)", compact, strung)
	}
	if GroupAllReduceSeconds(bytes, 1, 0, lp) != 0 {
		t.Fatal("group of one must be free")
	}
}
