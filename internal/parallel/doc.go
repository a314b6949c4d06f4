// Package parallel provides small, allocation-conscious helpers for
// data-parallel loops on the host CPU. Every compute kernel in the tensor
// engine funnels through this package so that parallelism policy (grain
// size, worker count) lives in one place.
//
// Seams: For and ForChunked split an index range across at most the
// caller's worker count; ForChunked runs inline when the range is at or
// below its grain, so small kernels pay no goroutine overhead.
// ReduceFloat64 sums fixed-size spans, so its result does not depend on the
// worker count. Kernels pass their engine's budget (tensor.Scratch.Workers);
// the input pipeline passes MaxWorkers to render the samples of a batch in
// parallel.
//
// Paper: stands in for the on-chip parallelism a TPU core gets for free —
// it is what makes mini-scale wall-clock measurements meaningful at all.
package parallel
