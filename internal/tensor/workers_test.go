package tensor

import (
	"math/rand"
	"testing"

	"effnetscale/internal/parallel"
)

// atWorkerBounds evaluates f once per process-wide worker bound and
// returns the results in bound order.
func atWorkerBounds[T any](bounds []int, f func() T) []T {
	prev := parallel.MaxWorkers()
	defer parallel.SetMaxWorkers(prev)
	out := make([]T, len(bounds))
	for i, w := range bounds {
		parallel.SetMaxWorkers(w)
		out[i] = f()
	}
	return out
}

// TestResultsIndependentOfWorkerCount: the worker count may schedule a
// kernel's work but never change its bits. Reductions and weight-gradient
// partials are split by problem size, so every bound sums the same pieces
// in the same order — which is what lets a replica engine budget its
// kernels' workers (and a run move between machines) without changing the
// trajectory.
func TestResultsIndependentOfWorkerCount(t *testing.T) {
	bounds := []int{1, 2, 3, 8}
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{4096, 100003} {
		a, b := Randn(rng, 1, n), Randn(rng, 1, n)
		for name, f := range map[string]func() float64{
			"Norm": a.Norm,
			"Sum":  a.Sum,
			"Dot":  func() float64 { return Dot(a, b) },
		} {
			got := atWorkerBounds(bounds, f)
			for i := range got {
				if got[i] != got[0] {
					t.Errorf("%s of %d normals: %v at %d workers, %v at %d", name, n, got[i], bounds[i], got[0], bounds[0])
				}
			}
		}
	}

	// A 3×3 convolution with a 16×8×3×3 (1,152-element) weight gradient.
	for _, batch := range []int{2, 5, 16} {
		x := Randn(rng, 1, batch, 8, 12, 12)
		w := Randn(rng, 0.2, 16, 8, 3, 3)
		spec := ConvSpec{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
		dy := Randn(rng, 1, spec.OutShape(x, w)...)
		grads := atWorkerBounds(bounds, func() [2]*Tensor {
			dx, dw := Conv2DBackward(x, w, dy, spec)
			return [2]*Tensor{dx, dw}
		})
		for i, g := range grads {
			for k, name := range []string{"dx", "dw"} {
				diff := 0
				for j, v := range g[k].Data() {
					if v != grads[0][k].Data()[j] {
						diff++
					}
				}
				if diff > 0 {
					t.Errorf("batch %d: conv %s differs in %d of %d elements between %d and %d workers",
						batch, name, diff, g[k].Len(), bounds[0], bounds[i])
				}
			}
		}
	}
}
