package replica

import (
	"runtime"
	"testing"

	"effnetscale/internal/parallel"
	"effnetscale/internal/schedule"
)

func TestEngineFullyDeterministic(t *testing.T) {
	// Two engines built from the same config must produce bitwise-identical
	// training trajectories — the reproducibility contract that makes
	// paper-style benchmarking meaningful.
	mk := func() *Engine {
		cfg := miniEngineConfig(4, 4, 4)
		cfg.OptimizerName = "lars"
		cfg.Schedule = schedule.Warmup{Epochs: 1, Inner: schedule.Constant(5)}
		cfg.NoAugment = false // augmentation must be deterministic too
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := mk(), mk()
	for i := 0; i < 4; i++ {
		ra := mustStep(t, a)
		rb := mustStep(t, b)
		if ra.Loss != rb.Loss || ra.Accuracy != rb.Accuracy {
			t.Fatalf("step %d: runs diverged (loss %v vs %v, acc %v vs %v)", i, ra.Loss, rb.Loss, ra.Accuracy, rb.Accuracy)
		}
	}
	ap := a.Replica(0).Model.Params()
	bp := b.Replica(0).Model.Params()
	for i := range ap {
		for j := range ap[i].Data().Data() {
			if ap[i].Data().Data()[j] != bp[i].Data().Data()[j] {
				t.Fatalf("weights diverged at %s[%d]", ap[i].Name, j)
			}
		}
	}
}

func TestTrajectoryIndependentOfCores(t *testing.T) {
	// The kernel-worker budget is max(1, GOMAXPROCS ÷ World): one core
	// gives each replica's kernels one worker, four cores give them two.
	// The budget schedules the kernels' work but must not change a bit of
	// the trajectory, or a run's result would depend on its machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(4))
	run := func(procs int) *Engine {
		runtime.GOMAXPROCS(procs)
		cfg := miniEngineConfig(2, 4, 2)
		cfg.OptimizerName = "lars"
		cfg.Schedule = schedule.Warmup{Epochs: 1, Inner: schedule.Constant(5)}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := max(1, procs/2); e.scratch.Workers() != want {
			t.Fatalf("GOMAXPROCS %d, world 2: kernel-worker budget %d, want %d", procs, e.scratch.Workers(), want)
		}
		for i := 0; i < 3; i++ {
			mustStep(t, e)
		}
		return e
	}
	a, b := run(1), run(4)
	ap, bp := a.Replica(0).Model.Params(), b.Replica(0).Model.Params()
	for i := range ap {
		for j, v := range ap[i].Data().Data() {
			if v != bp[i].Data().Data()[j] {
				t.Fatalf("weights differ between 1 and 4 cores at %s[%d]", ap[i].Name, j)
			}
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	cfg1 := miniEngineConfig(2, 4, 1)
	cfg2 := miniEngineConfig(2, 4, 1)
	cfg2.Seed = 99
	a, err := New(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := mustStep(t, a), mustStep(t, b)
	if ra.Loss == rb.Loss {
		t.Fatal("different seeds produced identical losses (suspicious)")
	}
}

func TestBNMomentumOverrideApplied(t *testing.T) {
	cfg := miniEngineConfig(2, 4, 1)
	cfg.BNMomentum = 0.42
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, bn := range e.Replica(0).Model.BatchNorms() {
		if bn.Momentum != 0.42 {
			t.Fatalf("BN momentum = %v, want 0.42", bn.Momentum)
		}
	}
	// Zero value keeps the library default.
	cfg2 := miniEngineConfig(2, 4, 1)
	e2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.Replica(0).Model.BatchNorms()[0].Momentum; got != 0.99 {
		t.Fatalf("default BN momentum = %v, want 0.99", got)
	}
}
