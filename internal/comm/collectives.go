package comm

// The transport-level collectives beyond the ring all-reduce: broadcast,
// all-gather, reduce-scatter and the recursive-doubling tree all-reduce.
// These are the building blocks the Collective implementations
// (collective.go) compose.

// broadcast copies root's buf to every rank. All ranks must pass buffers of
// the same length; non-root contents are overwritten.
func (p *Peer) broadcast(buf []float32, root int) {
	if p.w.n == 1 {
		return
	}
	l := publish(p, buf, "comm: broadcast buffer length mismatch across ranks")
	if p.rank != root {
		copy(buf, l.in[root])
	}
	p.w.bar.wait()
}

// allGather concatenates every rank's local slice into out, ordered by rank.
// len(out) must equal WorldSize() × len(local).
func (p *Peer) allGather(local, out []float32) {
	n, k := p.w.n, len(local)
	if len(out) != n*k {
		panic("comm: all-gather output length must be world × local length")
	}
	if n == 1 {
		copy(out, local)
		return
	}
	l := publish(p, local, "comm: all-gather buffer length mismatch across ranks")
	for r, src := range l.in {
		copy(out[r*k:(r+1)*k], src)
	}
	p.w.bar.wait()
}

// reduceScatter sums buf across ranks in ring order and returns, as a fresh
// slice, chunk (rank+1) mod n of the reduced result (bounds per
// chunkBounds). buf is left partially reduced.
func (p *Peer) reduceScatter(buf []float32) []float32 {
	lo, hi := ringReduceScatter(p, buf)
	return append([]float32(nil), buf[lo:hi]...)
}

// treeAllReduce sums buf across all ranks in recursive halving/doubling
// order: the total of log2(n) rounds that each add the partial sum of the
// partner at distance 2^round, i.e. the balanced pairwise sum over rank
// indices. The message-passing form moves O(log n) full payloads per rank,
// beating the ring for small latency-bound payloads. Non-power-of-two
// worlds fall back to the ring (reported by Tree.Algorithm as a ring
// fallback).
func treeAllReduce[T float](p *Peer, buf []T) {
	if n := p.w.n; n&(n-1) != 0 {
		ringAllReduce(p, buf)
		return
	}
	allReduce(p, buf, true)
}
