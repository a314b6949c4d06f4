package elastic

import (
	"fmt"
	"sort"
	"strings"

	"effnetscale/internal/checkpoint"
	"effnetscale/internal/mesh"
)

// Snapshot component and blob keys this package reads and rewrites. They are
// owned by internal/replica (state.go) — the engine writes them, elastic
// re-partitions them. Kept as literals here so elastic depends only on the
// snapshot schema, not on the engine.
const (
	engineComponent = "engine"
	replicaPrefix   = "replica/"
)

// Geometry is one concrete factorization of a global batch across a world:
// GlobalBatch = World × PerReplicaBatch × GradAccum.
type Geometry struct {
	World           int
	PerReplicaBatch int
	GradAccum       int
}

// GlobalBatch returns the geometry's global batch size.
func (g Geometry) GlobalBatch() int { return g.World * g.PerReplicaBatch * g.GradAccum }

// Option configures Plan and Reshard.
type Option func(*options)

type options struct {
	hintBatch int
	hintAccum int
}

// WithGeometryHint prefers the given per-replica batch and accumulation depth
// when re-factorizing the global batch for the new world. The hint is used
// when it divides cleanly (exactly, or the batch alone); otherwise the solver
// falls back to its default rules. Zero values leave the corresponding
// dimension unconstrained.
func WithGeometryHint(perReplicaBatch, gradAccum int) Option {
	return func(o *options) {
		o.hintBatch = perReplicaBatch
		o.hintAccum = gradAccum
	}
}

// snapGeometry reads and validates the snapshot's recorded geometry plus the
// keys resharding needs. It rejects snapshots from before the split
// fingerprint (nothing to validate the trajectory against) and snapshots
// taken on a hybrid mesh (model-sharded per-rank state does not re-partition
// along the data axis).
func snapGeometry(snap *checkpoint.Snapshot) (eng checkpoint.Component, old Geometry, err error) {
	eng, err = snap.Component(engineComponent)
	if err != nil {
		return nil, Geometry{}, err
	}
	if _, err := eng.Str("trajectory"); err != nil {
		return nil, Geometry{}, fmt.Errorf("elastic: snapshot predates elastic resharding (no trajectory fingerprint); re-capture it with a current binary first")
	}
	if meshStr, merr := eng.Str("mesh"); merr == nil {
		shape, perr := mesh.ParseShape(meshStr)
		if perr == nil && shape.Model > 1 {
			return nil, Geometry{}, fmt.Errorf("elastic: snapshot was taken on a %s hybrid mesh; only pure data-parallel (Dx1) snapshots reshard", meshStr)
		}
	}
	for key, dst := range map[string]*int{
		"world": &old.World, "batch": &old.PerReplicaBatch, "accum": &old.GradAccum,
	} {
		v, err := eng.I64(key)
		if err != nil {
			return nil, Geometry{}, fmt.Errorf("elastic: %w", err)
		}
		if v < 1 {
			return nil, Geometry{}, fmt.Errorf("elastic: snapshot %s = %d is not positive", key, v)
		}
		*dst = int(v)
	}
	return eng, old, nil
}

// Plan solves the target geometry for resuming the snapshot on newShape: the
// new world size with a (per-replica batch, grad accumulation) factorization
// that keeps the global batch — and with it the optimizer trajectory, the LR
// schedule and the per-step sample sets — exactly what it was. Preference
// order: the caller's hint when it multiplies out exactly, the hinted batch
// when it divides the per-rank share, the old per-replica batch, the old
// accumulation depth, then batch = share with no accumulation.
func Plan(snap *checkpoint.Snapshot, newShape mesh.Shape, opts ...Option) (Geometry, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if err := newShape.Validate(); err != nil {
		return Geometry{}, fmt.Errorf("elastic: %w", err)
	}
	if newShape.Model > 1 {
		return Geometry{}, fmt.Errorf("elastic: target mesh %s has a model axis; resharding only re-partitions the data axis (Dx1)", newShape)
	}
	_, old, err := snapGeometry(snap)
	if err != nil {
		return Geometry{}, err
	}
	gb := old.GlobalBatch()
	d := newShape.Data
	if gb%d != 0 {
		return Geometry{}, fmt.Errorf("elastic: global batch %d does not divide across world %d (snapshot world %d, batch %d, accum %d)", gb, d, old.World, old.PerReplicaBatch, old.GradAccum)
	}
	share := gb / d // samples per rank per step
	g := Geometry{World: d}
	switch {
	case o.hintBatch > 0 && o.hintAccum > 0 && o.hintBatch*o.hintAccum == share:
		g.PerReplicaBatch, g.GradAccum = o.hintBatch, o.hintAccum
	case o.hintBatch > 0 && share%o.hintBatch == 0:
		g.PerReplicaBatch, g.GradAccum = o.hintBatch, share/o.hintBatch
	case share%old.PerReplicaBatch == 0:
		g.PerReplicaBatch, g.GradAccum = old.PerReplicaBatch, share/old.PerReplicaBatch
	case share%old.GradAccum == 0:
		g.PerReplicaBatch, g.GradAccum = share/old.GradAccum, old.GradAccum
	default:
		g.PerReplicaBatch, g.GradAccum = share, 1
	}
	return g, nil
}

// Reshard rewrites a world-D_old snapshot into one restorable at world
// newShape.Data with the same global batch. Replica-identical state — model
// weights, optimizer slots, EMA shadow — passes through untouched. Per-rank
// state is re-partitioned: each new rank's BN running statistics are merged
// from the old ranks whose data shards feed its new shard (sample-weighted
// mean, variance via the law of total variance), and RNG cursors reset so the
// restore re-seeds streams by the new data coordinate. The result is
// statistically continuous, not bit-for-bit: fp summation order and per-rank
// randomness move with the topology.
//
// When newShape matches the snapshot's own geometry the original snapshot is
// returned unchanged, preserving the bit-for-bit resume path.
func Reshard(snap *checkpoint.Snapshot, newShape mesh.Shape, opts ...Option) (*checkpoint.Snapshot, error) {
	plan, err := Plan(snap, newShape, opts...)
	if err != nil {
		return nil, err
	}
	eng, old, err := snapGeometry(snap)
	if err != nil {
		return nil, err
	}
	if plan == old {
		return snap, nil
	}

	trainSize, err := eng.I64("trainsize")
	if err != nil {
		return nil, fmt.Errorf("elastic: %w", err)
	}
	traj, _ := eng.Str("trajectory")
	step, err := eng.I64("step")
	if err != nil {
		return nil, fmt.Errorf("elastic: %w", err)
	}

	out := checkpoint.NewSnapshot()

	// Engine component: keep the trajectory identity and step position,
	// rewrite the geometry to the target, and mark the snapshot as resharded.
	ne := checkpoint.Component{}
	ne.PutI64("step", step)
	ne.PutStr("trajectory", traj)
	ne.PutI64("trainsize", trainSize)
	ne.PutI64("world", int64(plan.World))
	ne.PutI64("batch", int64(plan.PerReplicaBatch))
	ne.PutI64("accum", int64(plan.GradAccum))
	ne.PutStr("mesh", mesh.Shape{Data: plan.World, Model: 1}.String())
	provenance := fmt.Sprintf("resharded world %d->%d batch %d->%d accum %d->%d",
		old.World, plan.World, old.PerReplicaBatch, plan.PerReplicaBatch, old.GradAccum, plan.GradAccum)
	ne.PutStr("elastic", provenance)
	if err := out.Add(engineComponent, ne); err != nil {
		return nil, err
	}

	// Replica-identical components (model, optim, ema, and anything a caller
	// layered on, like the train session's loop state) pass through.
	for _, key := range snap.Keys() {
		if key == engineComponent || strings.HasPrefix(key, replicaPrefix) {
			continue
		}
		c, err := snap.Component(key)
		if err != nil {
			return nil, err
		}
		if err := out.Add(key, c); err != nil {
			return nil, err
		}
	}

	olds := make([]checkpoint.Component, old.World)
	for r := range olds {
		c, err := snap.Component(fmt.Sprintf("%s%d", replicaPrefix, r))
		if err != nil {
			return nil, err
		}
		olds[r] = c
	}
	for n := 0; n < plan.World; n++ {
		rc, err := mergeReplica(olds, n, plan.World, int(trainSize))
		if err != nil {
			return nil, err
		}
		if err := out.Add(fmt.Sprintf("%s%d", replicaPrefix, n), rc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// mergeReplica builds new rank n's per-replica component from the old ranks
// whose strided data shards intersect its new shard. The strided shard gives
// rank r of world W the permuted positions ≡ r (mod W), so new rank n's
// positions overlap exactly the old ranks o with o ≡ n (mod gcd(D_old,
// D_new)): a coalesce (16→4) merges several old ranks, a split (4→16)
// replicates one. BN running statistics are combined sample-weighted by the
// source shards' sizes; variances pool via the law of total variance. RNG
// cursors reset to zero — the restore re-seeds streams by the new data
// coordinate, and cursor position is trajectory-neutral once bit-for-bit
// continuity is already forfeited.
func mergeReplica(olds []checkpoint.Component, n, newWorld, trainSize int) (checkpoint.Component, error) {
	g := gcd(len(olds), newWorld)
	var sources []int
	var weights []float64
	for o := n % g; o < len(olds); o += g {
		sources = append(sources, o)
		size := trainSize / len(olds)
		if o < trainSize%len(olds) {
			size++
		}
		weights = append(weights, float64(size))
	}

	rc := checkpoint.Component{}
	rc.PutI64("augdraws", 0)
	rc.PutI64("ctxdraws", 0)

	// Every bn/<i>/{mean,var} pair present on the sources merges; source
	// components are schema-identical, so enumerate from the first.
	var bnKeys []string
	for _, key := range olds[sources[0]].Keys() {
		if strings.HasPrefix(key, "bn/") && strings.HasSuffix(key, "/mean") {
			bnKeys = append(bnKeys, strings.TrimSuffix(key, "/mean"))
		}
	}
	sort.Strings(bnKeys)
	var total float64
	for _, w := range weights {
		total += w
	}
	for _, bn := range bnKeys {
		ref := olds[sources[0]][bn+"/mean"]
		width := len(ref.F32)
		mean := make([]float64, width)
		second := make([]float64, width) // E[x^2] accumulator
		for si, o := range sources {
			m, err := olds[o].F32(bn+"/mean", ref.Shape)
			if err != nil {
				return nil, fmt.Errorf("elastic: source rank %d: %w", o, err)
			}
			v, err := olds[o].F32(bn+"/var", ref.Shape)
			if err != nil {
				return nil, fmt.Errorf("elastic: source rank %d: %w", o, err)
			}
			w := weights[si] / total
			for i := range m {
				mean[i] += w * float64(m[i])
				second[i] += w * (float64(v[i]) + float64(m[i])*float64(m[i]))
			}
		}
		outMean := make([]float32, width)
		outVar := make([]float32, width)
		for i := range mean {
			outMean[i] = float32(mean[i])
			variance := second[i] - mean[i]*mean[i]
			if variance < 0 { // fp round-off on identical sources
				variance = 0
			}
			outVar[i] = float32(variance)
		}
		rc.PutF32(bn+"/mean", ref.Shape, outMean)
		rc.PutF32(bn+"/var", ref.Shape, outVar)
	}
	return rc, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
