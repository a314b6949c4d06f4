package comm

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// World is n ranks exchanging buffers through shared memory. Each rank must
// be driven by its own goroutine; collectives are synchronous across the
// world.
//
// Every collective runs the same five steps: each rank publishes its
// buffer, the world crosses a barrier, each rank folds the chunk it owns
// from every published buffer — in exactly the order the message-passing
// algorithm it stands for would have summed it — the world crosses a second
// barrier, and each rank copies the result out. Nothing is staged or sent,
// so a warm world performs no allocations.
type World struct {
	n   int
	bar *cyclicBarrier
	f32 lanes[float32]
	f64 lanes[float64]
}

// float is the element type of a reducible buffer.
type float interface{ ~float32 | ~float64 }

// lanes is one element type's shared state. in[r] is the buffer rank r
// published for the current collective, read by the other ranks only
// between its two barriers. out[r] is rank r's private fold scratch, which
// holds the chunk r owns from the fold until r's next collective; the other
// ranks read it only after the second barrier. tmp[r] is rank r's
// recursive-doubling level stack.
type lanes[T float] struct {
	in, out, tmp [][]T
}

func newLanes[T float](n int) lanes[T] {
	return lanes[T]{in: make([][]T, n), out: make([][]T, n), tmp: make([][]T, n)}
}

// lanesOf returns w's shared state for element type T.
func lanesOf[T float](w *World) *lanes[T] {
	if l, ok := any(&w.f32).(*lanes[T]); ok {
		return l
	}
	return any(&w.f64).(*lanes[T])
}

// NewWorld creates a communication world of n ranks.
func NewWorld(n int) *World {
	if n < 1 {
		panic("comm: world size must be >= 1")
	}
	return &World{n: n, bar: newCyclicBarrier(n), f32: newLanes[float32](n), f64: newLanes[float64](n)}
}

// cyclicBarrier is a reusable rendezvous for n goroutines. Arrival is one
// atomic add. A waiter first yields its processor a bounded number of times
// — the ranks it waits for are usually runnable goroutines, and yielding
// lets them run without a park/unpark round trip — and only then sleeps on
// the condition variable.
type cyclicBarrier struct {
	n     int32
	count atomic.Int32
	gen   atomic.Uint32
	mu    sync.Mutex
	cond  *sync.Cond
}

// barrierYields bounds how often a waiter yields before it sleeps.
const barrierYields = 64

func newCyclicBarrier(n int) *cyclicBarrier {
	b := &cyclicBarrier{n: int32(n)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *cyclicBarrier) wait() {
	gen := b.gen.Load()
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.mu.Lock()
		b.gen.Add(1)
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for i := 0; i < barrierYields; i++ {
		if b.gen.Load() != gen {
			return
		}
		runtime.Gosched()
	}
	b.mu.Lock()
	for b.gen.Load() == gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// Size returns the world size.
func (w *World) Size() int { return w.n }

// Peer returns rank r's endpoint.
func (w *World) Peer(r int) *Peer {
	if r < 0 || r >= w.n {
		panic(fmt.Sprintf("comm: rank %d out of range [0,%d)", r, w.n))
	}
	return &Peer{w: w, rank: r}
}

// Peer is one rank's view of a World: the shared-memory transport the
// Collective implementations are built on. All collectives must be entered
// by every rank of the world (from distinct goroutines) or they deadlock —
// matching the lockstep SPMD semantics of TPU collectives. A rank whose
// buffer length differs from the others' makes every rank panic.
//
// The collective algorithms themselves are unexported methods; call sites
// outside this package go through the Collective interface.
type Peer struct {
	w    *World
	rank int
}

// Rank returns this peer's rank.
func (p *Peer) Rank() int { return p.rank }

// WorldSize returns the number of ranks.
func (p *Peer) WorldSize() int { return p.w.n }

// Barrier blocks until every rank of the world has entered it.
func (p *Peer) Barrier() {
	if p.w.n == 1 {
		return
	}
	p.w.bar.wait()
}

// chunkBounds splits length l into n contiguous chunks; chunk i is
// [lo, hi). Chunks may be empty when l < n.
func chunkBounds(l, n, i int) (lo, hi int) {
	base := l / n
	rem := l % n
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// ringMismatch is the panic of a ring all-reduce or reduce-scatter whose
// ranks passed buffers of different lengths.
const ringMismatch = "comm: ring reduce-scatter buffer length mismatch across ranks"

// owned is the chunk rank r owns in a world of n: (r+1) mod n, where a
// ring's reduce-scatter leaves the fully reduced chunk.
func owned(r, n int) int { return (r + 1) % n }

// publish makes buf rank p's contribution to the current collective and
// waits for every rank's. It panics with msg on every rank when the
// published lengths differ.
func publish[T float](p *Peer, buf []T, msg string) *lanes[T] {
	l := lanesOf[T](p.w)
	l.in[p.rank] = buf
	p.w.bar.wait()
	for _, b := range l.in {
		if len(b) != len(buf) {
			panic(msg)
		}
	}
	return l
}

// scratch returns (*s)[:m], growing *s first if it is too small.
func scratch[T float](s *[]T, m int) []T {
	if cap(*s) < m {
		*s = make([]T, m)
	}
	*s = (*s)[:m]
	return *s
}

// foldRing sets acc to the [lo, lo+len(acc)) span of the published buffers
// summed in ring order from rank c: x_c + x_{c+1} + … + x_{c+n−1} (ranks
// mod n), accumulated left to right — the order in which the message-passing
// ring's reduce-scatter hands a chunk from rank to rank.
func foldRing[T float](acc []T, in [][]T, c, lo int) {
	n := len(in)
	copy(acc, in[c][lo:])
	for k := 1; k < n; k++ {
		src := in[(c+k)%n][lo : lo+len(acc)]
		for i, v := range src {
			acc[i] += v
		}
	}
}

// treeBlock is how many elements foldTree carries through its level stack
// at a time.
const treeBlock = 256

// foldTree sets acc to the [lo, lo+len(acc)) span of the published buffers
// summed in recursive-doubling order on a power-of-two world: the balanced
// pairwise sum (x0+x1)+(x2+x3)… over rank indices, which is what every rank
// holds after log2(n) rounds of exchanging partial sums with the partner
// at distance 1, 2, 4, …. stack is the caller's level-stack scratch.
func foldTree[T float](acc []T, in [][]T, lo int, stack *[]T) {
	n := len(in)
	st := scratch(stack, bits.Len(uint(n))*treeBlock)
	for b0 := 0; b0 < len(acc); b0 += treeBlock {
		w := min(treeBlock, len(acc)-b0)
		depth := 0
		for r := 0; r < n; r++ {
			copy(st[depth*treeBlock:depth*treeBlock+w], in[r][lo+b0:])
			depth++
			// Leaf r closes one subtree per trailing zero bit of r+1.
			for c := r + 1; c&1 == 0; c >>= 1 {
				a := st[(depth-2)*treeBlock:][:w]
				b := st[(depth-1)*treeBlock:][:w]
				for i, v := range b {
					a[i] += v
				}
				depth--
			}
		}
		copy(acc[b0:b0+w], st[:w])
	}
}

// allReduce sums buf across the world in place: rank r folds chunk
// owned(r) into its scratch in ring order, or in recursive-doubling order
// when tree is set, and then every rank copies every chunk from its owner.
func allReduce[T float](p *Peer, buf []T, tree bool) {
	n, r := p.w.n, p.rank
	if n == 1 {
		return
	}
	msg := ringMismatch
	if tree {
		msg = "comm: tree all-reduce buffer length mismatch across ranks"
	}
	l := publish(p, buf, msg)
	c := owned(r, n)
	lo, hi := chunkBounds(len(buf), n, c)
	acc := scratch(&l.out[r], hi-lo)
	if tree {
		foldTree(acc, l.in, lo, &l.tmp[r])
	} else {
		foldRing(acc, l.in, c, lo)
	}
	p.w.bar.wait()
	for o := 0; o < n; o++ {
		lo, _ := chunkBounds(len(buf), n, owned(o, n))
		copy(buf[lo:], l.out[o])
	}
}

// ringReduceScatter folds chunk owned(rank) of buf across the world in ring
// order and stores it in place; the rest of buf keeps this rank's input.
// It returns the owned chunk's bounds.
func ringReduceScatter[T float](p *Peer, buf []T) (lo, hi int) {
	n, r := p.w.n, p.rank
	if n == 1 {
		return 0, len(buf)
	}
	l := publish(p, buf, ringMismatch)
	c := owned(r, n)
	lo, hi = chunkBounds(len(buf), n, c)
	acc := scratch(&l.out[r], hi-lo)
	foldRing(acc, l.in, c, lo)
	p.w.bar.wait()
	copy(buf[lo:hi], acc)
	return lo, hi
}

// ringAllGather completes buf from its owners: every rank's chunk
// owned(rank) is final (the state ringReduceScatter leaves), and every rank
// copies the other chunks from their owners' buffers.
func ringAllGather[T float](p *Peer, buf []T) {
	n, r := p.w.n, p.rank
	if n == 1 {
		return
	}
	l := publish(p, buf, "comm: ring all-gather buffer length mismatch across ranks")
	for o := 0; o < n; o++ {
		if o != r {
			lo, hi := chunkBounds(len(buf), n, owned(o, n))
			copy(buf[lo:hi], l.in[o][lo:hi])
		}
	}
	p.w.bar.wait()
}

// ringAllReduce sums buf element-wise across all ranks; on return every
// rank's buf holds the identical total. Chunk c is x_c + x_{c+1} + … +
// x_{c+n−1}: the order of the bandwidth-optimal ring, whose n−1
// reduce-scatter steps pass chunk c from rank c around to rank c−1 and
// whose n−1 all-gather steps hand the total back to everyone, for
// 2(n−1)/n · |buf| bytes per link. float64 buffers carry batch-norm
// statistics and metrics, which accumulate in double precision.
func ringAllReduce[T float](p *Peer, buf []T) {
	allReduce(p, buf, false)
}

// AllReduceScalar sums a scalar across the collective's ranks (convenience
// for counts and losses).
func AllReduceScalar(c Collective, v float64) float64 {
	buf := []float64{v}
	c.AllReduceF64(buf)
	return buf[0]
}
