package comm

// Bit-exact oracle for every provider: each collective's output must equal,
// bit for bit, a sequential reference that folds the ranks' inputs in the
// order the algorithm documents. Floating-point addition is commutative but
// not associative, so the fold order is the whole contract — a transport
// that regroups the sum by so much as one pair fails here, and with it every
// bit-for-bit trajectory guarantee built on the collectives.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"effnetscale/internal/topology"
)

// chunkOf returns the index of the chunkBounds(l, n, ·) chunk holding i.
func chunkOf(i, l, n int) int {
	for c := 0; c < n; c++ {
		if _, hi := chunkBounds(l, n, c); i < hi {
			return c
		}
	}
	panic("chunkOf: index out of range")
}

// refRing is the ring order: element i of chunk c is
// x_c + x_{c+1} + … + x_{c+n−1} (ranks mod n), accumulated left to right.
func refRing[T float](xs [][]T) []T {
	n, l := len(xs), len(xs[0])
	out := make([]T, l)
	for i := range out {
		c := chunkOf(i, l, n)
		acc := xs[c][i]
		for k := 1; k < n; k++ {
			acc += xs[(c+k)%n][i]
		}
		out[i] = acc
	}
	return out
}

// refTree is the recursive-doubling order on a power-of-two world: the
// balanced pairwise sum (x0+x1)+(x2+x3)… over rank indices.
func refTree[T float](xs [][]T) []T {
	var sum func(lo, n, i int) T
	sum = func(lo, n, i int) T {
		if n == 1 {
			return xs[lo][i]
		}
		return sum(lo, n/2, i) + sum(lo+n/2, n/2, i)
	}
	out := make([]T, len(xs[0]))
	for i := range out {
		out[i] = sum(0, len(xs), i)
	}
	return out
}

// refTorus is the rows×cols hierarchy: a ring over each row's columns
// starting at the row chunk q, then a ring over the rows starting at the
// column sub-chunk p of that row chunk.
func refTorus[T float](xs [][]T, rows, cols int) []T {
	if rows == 1 || cols == 1 {
		return refRing(xs)
	}
	l := len(xs[0])
	out := make([]T, l)
	for i := range out {
		q := chunkOf(i, l, cols)
		lo, hi := chunkBounds(l, cols, q)
		p := chunkOf(i-lo, hi-lo, rows)
		rowSum := func(r int) T {
			acc := xs[r*cols+q][i]
			for k := 1; k < cols; k++ {
				acc += xs[r*cols+(q+k)%cols][i]
			}
			return acc
		}
		acc := rowSum(p)
		for k := 1; k < rows; k++ {
			acc += rowSum((p + k) % rows)
		}
		out[i] = acc
	}
	return out
}

// refAllReduce dispatches on the concrete algorithm name an endpoint
// reports (Auto's per-call choice resolved by ChooseFor).
func refAllReduce[T float](alg string, xs [][]T) []T {
	if len(xs) == 1 {
		return append([]T(nil), xs[0]...)
	}
	switch {
	case alg == "ring" || strings.HasPrefix(alg, "tree(ring-fallback"):
		return refRing(xs)
	case alg == "tree":
		return refTree(xs)
	case strings.HasPrefix(alg, "torus2d("):
		var rows, cols int
		if _, err := fmt.Sscanf(alg, "torus2d(%dx%d)", &rows, &cols); err != nil {
			panic(err)
		}
		return refTorus(xs, rows, cols)
	}
	panic("refAllReduce: unknown algorithm " + alg)
}

// concreteAlgorithm names the all-reduce algorithm c runs for bytes.
func concreteAlgorithm(c Collective, bytes int) string {
	if a, ok := c.(*Auto); ok {
		return a.ChooseFor(bytes)
	}
	return c.Algorithm()
}

// oracleInputs draws per-rank inputs spanning several orders of magnitude,
// so that every regrouping of a sum changes its rounding.
func oracleInputs(rng *rand.Rand, n, l int) [][]float64 {
	xs := make([][]float64, n)
	for r := range xs {
		xs[r] = make([]float64, l)
		for i := range xs[r] {
			xs[r][i] = rng.NormFloat64() * math.Exp(4*rng.NormFloat64())
		}
	}
	return xs
}

func to32(xs [][]float64) [][]float32 {
	out := make([][]float32, len(xs))
	for r, x := range xs {
		out[r] = make([]float32, len(x))
		for i, v := range x {
			out[r][i] = float32(v)
		}
	}
	return out
}

// firstDiff returns the first index where a and b differ, 0 when their
// lengths differ, and -1 when they are equal element for element.
func firstDiff[T float](a, b []T) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

type oracleCase struct {
	name string
	prov Provider
	n    int
}

func oracleCases() []oracleCase {
	var cases []oracleCase
	for n := 1; n <= 9; n++ {
		for _, p := range allProviders() {
			cases = append(cases, oracleCase{p.Name(), p, n})
		}
	}
	for _, g := range []topology.Slice{{Rows: 2, Cols: 3}, {Rows: 3, Cols: 2}, {Rows: 2, Cols: 4}, {Rows: 4, Cols: 2}, {Rows: 3, Cols: 3}, {Rows: 4, Cols: 1}} {
		n := g.Rows * g.Cols
		cases = append(cases,
			oracleCase{fmt.Sprintf("torus2d[%dx%d]", g.Rows, g.Cols), Torus2DProvider(g), n},
			oracleCase{fmt.Sprintf("auto[%dx%d]", g.Rows, g.Cols), AutoProvider(g), n})
	}
	return cases
}

func TestCollectivesMatchSequentialOracleBitForBit(t *testing.T) {
	for _, tc := range oracleCases() {
		n := tc.n
		for _, l := range []int{1, n - 1, n, 1023, 8193} {
			if l == 0 {
				continue
			}
			rng := rand.New(rand.NewSource(int64(1000*n + l)))
			x64 := oracleInputs(rng, n, l)
			x32 := to32(x64)
			colls := connectOrFatal(t, tc.prov, n)
			alg32 := concreteAlgorithm(colls[0], 4*l)
			alg64 := concreteAlgorithm(colls[0], 8*l)
			want32 := refAllReduce(alg32, x32)
			want64 := refAllReduce(alg64, x64)
			root := l % n

			ar32 := make([][]float32, n)
			ar64 := make([][]float64, n)
			rs := make([][]float32, n)
			ag := make([][]float32, n)
			bc := make([][]float32, n)
			runCollectives(colls, func(r int, c Collective) {
				ar32[r] = append([]float32(nil), x32[r]...)
				c.AllReduce(ar32[r])
				ar64[r] = append([]float64(nil), x64[r]...)
				c.AllReduceF64(ar64[r])
				rs[r] = c.ReduceScatter(append([]float32(nil), x32[r]...))
				ag[r] = make([]float32, n*l)
				c.AllGather(x32[r], ag[r])
				bc[r] = append([]float32(nil), x32[r]...)
				c.Broadcast(bc[r], root)
			})

			ring := refRing(x32)
			if n == 1 {
				ring = x32[0]
			}
			id := fmt.Sprintf("%s n=%d l=%d", tc.name, n, l)
			for r := 0; r < n; r++ {
				if i := firstDiff(ar32[r], want32); i >= 0 {
					t.Fatalf("%s rank %d: AllReduce (%s) differs from the oracle at %d", id, r, alg32, i)
				}
				if i := firstDiff(ar64[r], want64); i >= 0 {
					t.Fatalf("%s rank %d: AllReduceF64 (%s) differs from the oracle at %d", id, r, alg64, i)
				}
				lo, hi := chunkBounds(l, n, (r+1)%n)
				if i := firstDiff(rs[r], ring[lo:hi]); i >= 0 {
					t.Fatalf("%s rank %d: ReduceScatter differs from the ring oracle at %d", id, r, i)
				}
				for src := 0; src < n; src++ {
					if i := firstDiff(ag[r][src*l:(src+1)*l], x32[src]); i >= 0 {
						t.Fatalf("%s rank %d: AllGather block %d differs at %d", id, r, src, i)
					}
				}
				if i := firstDiff(bc[r], x32[root]); i >= 0 {
					t.Fatalf("%s rank %d: Broadcast from %d differs at %d", id, r, root, i)
				}
			}
		}
	}
}

// TestOracleDistinguishesFoldOrders guards the oracle itself: on these
// inputs the three documented orders must disagree somewhere, or a
// transport that regrouped the sum could still pass.
func TestOracleDistinguishesFoldOrders(t *testing.T) {
	xs := to32(oracleInputs(rand.New(rand.NewSource(7)), 8, 1023))
	ring, tree, torus := refRing(xs), refTree(xs), refTorus(xs, 2, 4)
	if firstDiff(ring, tree) < 0 || firstDiff(ring, torus) < 0 || firstDiff(tree, torus) < 0 {
		t.Fatal("ring, tree and torus2d oracles agree bit for bit; the inputs cannot tell fold orders apart")
	}
}
