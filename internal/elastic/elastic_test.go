package elastic_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"effnetscale/internal/bf16"
	"effnetscale/internal/checkpoint"
	"effnetscale/internal/data"
	"effnetscale/internal/elastic"
	"effnetscale/internal/mesh"
	"effnetscale/internal/replica"
	"effnetscale/internal/schedule"
)

// elasticEngine builds an engine for the statistical-continuity tests: BN
// groups spanning the full world so batch statistics cover the same global
// batch at every world size, no augmentation or dropout so the trajectory has
// no per-rank randomness, and FP32 so the only cross-world difference is
// floating-point summation order.
func elasticEngine(t testing.TB, world, perBatch, accum int) *replica.Engine {
	t.Helper()
	e, err := replica.New(replica.Config{
		World:           world,
		PerReplicaBatch: perBatch,
		GradAccumSteps:  accum,
		Model:           "pico",
		Dataset:         data.New(data.MiniConfig(4, 64, 16)),
		OptimizerName:   "sgd",
		Schedule:        schedule.Constant(0.05),
		BNGroupSize:     world,
		Precision:       bf16.FP32Policy,
		Seed:            7,
		NoAugment:       true,
		EMADecay:        0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func stepLoss(t testing.TB, e *replica.Engine) float64 {
	t.Helper()
	res, err := e.Step()
	if err != nil {
		t.Fatal(err)
	}
	return res.Loss
}

// TestElasticResumeTrajectory is the tentpole acceptance test: a world-8 run
// killed mid-epoch resumes on worlds 4 and 16 with the global batch held
// fixed, and the post-resume loss trajectory tracks the uninterrupted world-8
// run within floating-point tolerance. Bit-for-bit equality is NOT expected —
// the reduction order moved with the topology — but the optimizer trajectory,
// sample order and BN statistics are preserved exactly in exact arithmetic.
func TestElasticResumeTrajectory(t *testing.T) {
	const killAt, total = 5, 12 // stepsPerEpoch is 4: killAt is mid-epoch

	ref := elasticEngine(t, 8, 2, 1) // global batch 16
	defer ref.Close()
	if ref.StepsPerEpoch() != 4 {
		t.Fatalf("test setup: steps/epoch = %d, want 4", ref.StepsPerEpoch())
	}
	var refLoss []float64
	for s := 0; s < total; s++ {
		refLoss = append(refLoss, stepLoss(t, ref))
	}
	refAcc, err := ref.Evaluate(0)
	if err != nil {
		t.Fatal(err)
	}

	interrupted := elasticEngine(t, 8, 2, 1)
	for s := 0; s < killAt; s++ {
		stepLoss(t, interrupted)
	}
	snap, err := interrupted.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	interrupted.Close() // the "kill"

	for _, target := range []struct{ world, batch int }{
		{4, 4},  // coalesce: 2 old ranks per new rank
		{16, 1}, // split: each old rank feeds 2 new ranks
	} {
		t.Run(fmt.Sprintf("world%d", target.world), func(t *testing.T) {
			resharded, err := elastic.Reshard(snap, mesh.Shape{Data: target.world, Model: 1},
				elastic.WithGeometryHint(target.batch, 1))
			if err != nil {
				t.Fatal(err)
			}
			resumed := elasticEngine(t, target.world, target.batch, 1)
			defer resumed.Close()
			if gb := resumed.GlobalBatch(); gb != 16 {
				t.Fatalf("resumed global batch = %d, want 16", gb)
			}
			if err := resumed.RestoreState(resharded); err != nil {
				t.Fatal(err)
			}
			if resumed.StepCount() != killAt {
				t.Fatalf("restored step count %d, want %d", resumed.StepCount(), killAt)
			}
			for s := killAt; s < total; s++ {
				got := stepLoss(t, resumed)
				want := refLoss[s]
				if math.Abs(got-want) > 1e-2*(1+math.Abs(want)) {
					t.Fatalf("step %d: resumed loss %v vs world-8 loss %v", s, got, want)
				}
			}
			acc, err := resumed.Evaluate(0)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(acc-refAcc) > 0.15 {
				t.Fatalf("final accuracy %v far from world-8 accuracy %v", acc, refAcc)
			}
		})
	}
}

// TestPlanGeometryRules pins the geometry solver's preference order on a
// world-4, batch-2, accum-2 snapshot (global batch 16).
func TestPlanGeometryRules(t *testing.T) {
	e := elasticEngine(t, 4, 2, 2)
	defer e.Close()
	stepLoss(t, e)
	snap, err := e.CaptureState()
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		world int
		opts  []elastic.Option
		want  elastic.Geometry
	}{
		{"keeps-old-batch", 8, nil, elastic.Geometry{World: 8, PerReplicaBatch: 2, GradAccum: 1}},
		{"coalesce-keeps-batch", 2, nil, elastic.Geometry{World: 2, PerReplicaBatch: 2, GradAccum: 4}},
		{"exact-hint", 2, []elastic.Option{elastic.WithGeometryHint(4, 2)}, elastic.Geometry{World: 2, PerReplicaBatch: 4, GradAccum: 2}},
		{"batch-hint", 2, []elastic.Option{elastic.WithGeometryHint(8, 0)}, elastic.Geometry{World: 2, PerReplicaBatch: 8, GradAccum: 1}},
		{"undividable-hint-falls-back", 8, []elastic.Option{elastic.WithGeometryHint(3, 0)}, elastic.Geometry{World: 8, PerReplicaBatch: 2, GradAccum: 1}},
		{"identity", 4, nil, elastic.Geometry{World: 4, PerReplicaBatch: 2, GradAccum: 2}},
	} {
		got, err := elastic.Plan(snap, mesh.Shape{Data: tc.world, Model: 1}, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Fatalf("%s: plan = %+v, want %+v", tc.name, got, tc.want)
		}
		if got.GlobalBatch() != 16 {
			t.Fatalf("%s: plan changed the global batch: %+v", tc.name, got)
		}
	}

	// A world that does not divide the global batch has no geometry.
	if _, err := elastic.Plan(snap, mesh.Shape{Data: 3, Model: 1}); err == nil || !strings.Contains(err.Error(), "global batch") {
		t.Fatalf("world 3 plan = %v, want global-batch error", err)
	}
}

// TestReshardIdentityPreservesBitForBit: resharding to the snapshot's own
// geometry must return the snapshot untouched, so the world-unchanged resume
// path keeps the bit-for-bit contract.
func TestReshardIdentityPreservesBitForBit(t *testing.T) {
	e := elasticEngine(t, 4, 2, 2)
	defer e.Close()
	stepLoss(t, e)
	snap, err := e.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	out, err := elastic.Reshard(snap, mesh.Shape{Data: 4, Model: 1}, elastic.WithGeometryHint(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if out != snap {
		t.Fatal("identity reshard rebuilt the snapshot instead of passing it through")
	}
}

// TestReshardRejectsHybridMesh: model-sharded snapshots and model-sharded
// targets both refuse to reshard.
func TestReshardRejectsHybridMesh(t *testing.T) {
	e, err := replica.New(replica.Config{
		World: 4, PerReplicaBatch: 2, Model: "pico",
		Dataset:       data.New(data.MiniConfig(4, 64, 16)),
		OptimizerName: "sgd", Schedule: schedule.Constant(0.05),
		Precision: bf16.FP32Policy, Seed: 7, NoAugment: true,
		Mesh: mesh.Shape{Data: 2, Model: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	snap, err := e.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := elastic.Reshard(snap, mesh.Shape{Data: 2, Model: 1}); err == nil || !strings.Contains(err.Error(), "2x2") {
		t.Fatalf("hybrid snapshot reshard = %v, want error naming the 2x2 mesh", err)
	}

	flat := elasticEngine(t, 4, 2, 2)
	defer flat.Close()
	stepLoss(t, flat)
	fsnap, err := flat.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := elastic.Reshard(fsnap, mesh.Shape{Data: 2, Model: 2}); err == nil || !strings.Contains(err.Error(), "model axis") {
		t.Fatalf("hybrid target reshard = %v, want model-axis error", err)
	}
}

// TestReshardRejectsLegacySnapshot: a snapshot without the split fingerprint
// cannot be validated for resharding.
func TestReshardRejectsLegacySnapshot(t *testing.T) {
	e := elasticEngine(t, 4, 2, 2)
	defer e.Close()
	stepLoss(t, e)
	snap, err := e.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	delete(snap.Components["engine"], "trajectory")
	if _, err := elastic.Reshard(snap, mesh.Shape{Data: 2, Model: 1}); err == nil || !strings.Contains(err.Error(), "predates") {
		t.Fatalf("legacy snapshot reshard = %v, want predates-resharding error", err)
	}
}

// TestReshardedSnapshotBindsToTarget: a resharded snapshot restores only into
// the exact geometry it was rewritten for.
func TestReshardedSnapshotBindsToTarget(t *testing.T) {
	e := elasticEngine(t, 4, 2, 2)
	defer e.Close()
	stepLoss(t, e)
	snap, err := e.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	resharded, err := elastic.Reshard(snap, mesh.Shape{Data: 2, Model: 1})
	if err != nil {
		t.Fatal(err)
	}
	wrong := elasticEngine(t, 4, 2, 2) // not the target geometry
	defer wrong.Close()
	if err := wrong.RestoreState(resharded); err == nil || !strings.Contains(err.Error(), "resharded for") {
		t.Fatalf("wrong-world restore of resharded snapshot = %v, want resharded-for error", err)
	}
}

// TestBNMergeStatistics checks the residue-class merge math directly: with BN
// groups smaller than the world the running statistics genuinely differ
// across ranks, and a 4→2 coalesce must produce the sample-weighted mean and
// the law-of-total-variance pooled variance of each new rank's two sources.
func TestBNMergeStatistics(t *testing.T) {
	e, err := replica.New(replica.Config{
		World: 4, PerReplicaBatch: 2, GradAccumSteps: 2, Model: "pico",
		Dataset:       data.New(data.MiniConfig(4, 64, 16)),
		OptimizerName: "sgd", Schedule: schedule.Constant(0.05),
		BNGroupSize: 2, Precision: bf16.FP32Policy, Seed: 7, NoAugment: true,
		BNMomentum: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for s := 0; s < 2; s++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := e.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	resharded, err := elastic.Reshard(snap, mesh.Shape{Data: 2, Model: 1})
	if err != nil {
		t.Fatal(err)
	}

	// TrainSize 64, world 4: every old shard holds 16 samples, so the merge
	// weights are equal. New rank n sources old ranks {n, n+2}.
	for n := 0; n < 2; n++ {
		newC, err := resharded.Component(fmt.Sprintf("replica/%d", n))
		if err != nil {
			t.Fatal(err)
		}
		a, _ := snap.Component(fmt.Sprintf("replica/%d", n))
		b, _ := snap.Component(fmt.Sprintf("replica/%d", n+2))
		gotM, err := newC.F32("bn/0/mean", nil)
		if err != nil {
			t.Fatal(err)
		}
		gotV, err := newC.F32("bn/0/var", nil)
		if err != nil {
			t.Fatal(err)
		}
		ma, _ := a.F32("bn/0/mean", nil)
		mb, _ := b.F32("bn/0/mean", nil)
		va, _ := a.F32("bn/0/var", nil)
		vb, _ := b.F32("bn/0/var", nil)
		differs := false
		for i := range gotM {
			wantM := (float64(ma[i]) + float64(mb[i])) / 2
			wantV := (float64(va[i])+float64(ma[i])*float64(ma[i])+float64(vb[i])+float64(mb[i])*float64(mb[i]))/2 - wantM*wantM
			if math.Abs(float64(gotM[i])-wantM) > 1e-6 {
				t.Fatalf("rank %d mean[%d] = %v, want %v", n, i, gotM[i], wantM)
			}
			if math.Abs(float64(gotV[i])-wantV) > 1e-6 {
				t.Fatalf("rank %d var[%d] = %v, want %v", n, i, gotV[i], wantV)
			}
			if ma[i] != mb[i] {
				differs = true
			}
		}
		if !differs {
			t.Fatalf("rank %d: source BN means identical across groups (merge untested)", n)
		}
		for _, cursor := range []string{"augdraws", "ctxdraws"} {
			v, err := newC.I64(cursor)
			if err != nil || v != 0 {
				t.Fatalf("rank %d %s = %d, %v; want 0 (re-seeded by new coordinate)", n, cursor, v, err)
			}
		}
	}
}

// writeReadRoundTrip guards that resharded snapshots survive serialization —
// the CI drill resumes from files, not in-memory snapshots.
func TestReshardedSnapshotRoundTripsThroughFile(t *testing.T) {
	e := elasticEngine(t, 4, 2, 2)
	defer e.Close()
	stepLoss(t, e)
	snap, err := e.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	resharded, err := elastic.Reshard(snap, mesh.Shape{Data: 2, Model: 1}, elastic.WithGeometryHint(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/resharded.ckpt"
	if err := checkpoint.WriteSnapshotFile(path, resharded); err != nil {
		t.Fatal(err)
	}
	back, err := checkpoint.ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed := elasticEngine(t, 2, 4, 2)
	defer resumed.Close()
	if err := resumed.RestoreState(back); err != nil {
		t.Fatal(err)
	}
	if resumed.StepCount() != 1 {
		t.Fatalf("restored step count %d, want 1", resumed.StepCount())
	}
	if _, err := resumed.Step(); err != nil {
		t.Fatal(err)
	}
}
