package podsim

import (
	"fmt"

	"effnetscale/internal/comm"
)

// Overlap ablation: Table 1 reports all-reduce as a separate share of step
// time, i.e. the gradient all-reduce is serialized after the backward pass.
// A standard optimization overlaps the all-reduce of already-computed layer
// gradients with the remaining backward computation, hiding communication
// behind compute. This file models that design choice so the benchmark
// harness can quantify how much of Table 1's all-reduce share is hideable.

// OverlapResult compares serialized and overlapped step times for one
// configuration.
type OverlapResult struct {
	StepBreakdown
	// OverlapFraction is the fraction of the all-reduce hideable behind
	// backward compute (bounded by the backward pass's duration and by the
	// fraction of gradients available before backward finishes).
	OverlapFraction float64
	// OverlappedStepSeconds is the modelled step time with overlap.
	OverlappedStepSeconds float64
}

// SpeedupPct is the step-time reduction from overlapping, in percent.
func (o OverlapResult) SpeedupPct() float64 {
	base := o.StepBreakdown.StepSeconds()
	return 100 * (base - o.OverlappedStepSeconds) / base
}

// ModelStepGradReady prices the engine's grad-ready dispatch (ROADMAP item
// 1): the gradient payload splits into ⌈GradBytes/bucketBytes⌉ buckets, each
// all-reduced the moment the backward pass produces its last member. The
// exposed tail is structural: exactly one bucket — the input-side stem, whose gradients land when
// backward ends — plus whatever the backward window cannot absorb. Smaller
// buckets shrink that tail but pay per-collective α latency on every bucket,
// so total all-reduce busy time rises as buckets shrink; the returned
// StepBreakdown carries the bucketed busy time so SpeedupPct compares
// serialized-vs-overlapped dispatch of the same collectives. The ragged last
// bucket is priced as a full bucket (conservative).
func ModelStepGradReady(model string, cores, globalBatch, bnGroup, bucketBytes int) (OverlapResult, error) {
	if bucketBytes < 4 {
		return OverlapResult{}, fmt.Errorf("podsim: bucket size %d bytes must hold at least one fp32 value", bucketBytes)
	}
	sb, err := ModelStep(model, cores, globalBatch, bnGroup)
	if err != nil {
		return OverlapResult{}, err
	}
	perf, err := PerfFor(model)
	if err != nil {
		return OverlapResult{}, err
	}
	slice := mustSlice(cores)
	prov := comm.Torus2DProvider(slice)
	buckets := (perf.Stats.GradBytes + bucketBytes - 1) / bucketBytes
	perBucket, alg := prov.ModelAllReduce(bucketBytes, slice.Chips(), comm.TPUv3Links)
	busy := float64(buckets) * perBucket
	backward := sb.ComputeSeconds * 2 / 3
	hideable := busy - perBucket // every bucket but the stem's
	if hideable < 0 {
		hideable = 0
	}
	if hideable > backward {
		hideable = backward
	}
	sb.AllReduceSeconds = busy
	sb.Algorithm = alg
	res := OverlapResult{
		StepBreakdown:   sb,
		OverlapFraction: hideable / busy,
	}
	res.OverlappedStepSeconds = sb.StepSeconds() - hideable
	return res, nil
}
