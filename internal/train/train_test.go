package train

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"effnetscale/internal/bf16"
	"effnetscale/internal/checkpoint"
	"effnetscale/internal/data"
	"effnetscale/internal/efficientnet"
	"effnetscale/internal/replica"
	"effnetscale/internal/schedule"
)

// miniOpts is a tiny fast-training configuration shared by the loop tests.
func miniOpts(world, perBatch, bnGroup int, extra ...Option) []Option {
	base := []Option{
		WithModel("pico"),
		WithWorld(world),
		WithPerReplicaBatch(perBatch),
		WithBNGroup(bnGroup),
		WithData(data.MiniConfig(4, 256, 16)),
		WithOptimizer("sgd", 0),
		WithSchedule(schedule.Constant(0.1)),
		WithPrecision(bf16.FP32Policy),
		WithSeed(3),
		WithoutAugmentation(),
		WithEpochs(3),
		WithEvalSamples(16),
	}
	return append(base, extra...)
}

func TestOptionValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"no dataset", []Option{WithWorld(2)}, "dataset is required"},
		{"bad world", []Option{WithWorld(0)}, "world 0"},
		{"bad batch", []Option{WithPerReplicaBatch(-1)}, "per-replica batch"},
		{"bad epochs", []Option{WithEpochs(0)}, "epochs 0"},
		{"bad grad accum", []Option{WithGradAccum(0)}, "grad-accum"},
		{"bad smoothing", []Option{WithLabelSmoothing(1.5)}, "label smoothing"},
		{"bad bn momentum", []Option{WithBNMomentum(1)}, "BN momentum"},
		{"bad ema", []Option{WithEMA(1)}, "EMA decay"},
		{"bad target", []Option{WithTarget(2)}, "target accuracy"},
		{"bad lr", []Option{WithLinearScaling(0, 1, PolynomialDecay)}, "lr-per-256"},
		{"bad decay", []Option{WithLinearScaling(1, 1, Decay("linear"))}, "unknown decay"},
		{"nil schedule", []Option{WithSchedule(nil)}, "schedule"},
		{"nil strategy", []Option{WithEvalStrategy(nil)}, "strategy"},
		{"nil callback", []Option{WithCallbacks(nil)}, "callback"},
		{"nil option", []Option{nil}, "nil Option"},
		{"empty model", []Option{WithModel("")}, "model name"},
		{"empty ckpt path", []Option{WithBestCheckpoint("")}, "checkpoint path"},
		{"bad prefetch", []Option{WithPrefetch(0)}, "prefetch depth"},
		{"bn group does not divide", miniOpts(4, 2, 3), "does not divide"},
		{"unknown model", miniOpts(2, 2, 1, WithModel("b99")), "unknown model"},
		{"unknown optimizer", miniOpts(2, 2, 1, WithOptimizer("adagrad", 0)), "unknown optimizer"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(c.opts...)
			if err == nil {
				t.Fatalf("New(%s) did not error", c.name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestPrefetchOptionsPlumbThrough(t *testing.T) {
	on, err := New(miniOpts(2, 4, 1, WithPrefetch(3))...)
	if err != nil {
		t.Fatal(err)
	}
	defer on.Close()
	if got := on.Engine().Prefetching(); got != 3 {
		t.Fatalf("WithPrefetch(3): engine depth %d", got)
	}
	off, err := New(miniOpts(2, 4, 1, WithoutPrefetch())...)
	if err != nil {
		t.Fatal(err)
	}
	if got := off.Engine().Prefetching(); got != 0 {
		t.Fatalf("WithoutPrefetch: engine depth %d, want 0", got)
	}
	def, err := New(miniOpts(2, 4, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	defer def.Close()
	if got := def.Engine().Prefetching(); got != replica.DefaultPrefetchDepth {
		t.Fatalf("default: engine depth %d, want %d", got, replica.DefaultPrefetchDepth)
	}
	// Both modes must run and agree on the trajectory (no augmentation, so
	// the only difference is who renders).
	resOn, err := on.Run()
	if err != nil {
		t.Fatal(err)
	}
	resOff, err := off.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resOn.PeakAccuracy != resOff.PeakAccuracy {
		t.Fatalf("prefetched peak %v != synchronous peak %v", resOn.PeakAccuracy, resOff.PeakAccuracy)
	}
	on.Close() // double Close is safe
}

func TestDecayByName(t *testing.T) {
	for _, name := range []string{"polynomial", "exponential", "cosine", "constant"} {
		if d, err := DecayByName(name); err != nil || string(d) != name {
			t.Fatalf("DecayByName(%q) = %v, %v", name, d, err)
		}
	}
	if _, err := DecayByName("linear"); err == nil {
		t.Fatal("unknown decay must error")
	}
}

func TestCallbackFiringOrder(t *testing.T) {
	var events []string
	record := func(tag string) Callback {
		return Funcs{
			Step:       func(*Session, int, replica.StepResult) { events = append(events, tag+":step") },
			Eval:       func(*Session, EvalPoint) { events = append(events, tag+":eval") },
			Checkpoint: func(*Session, string, error) { events = append(events, tag+":ckpt") },
			End:        func(*Session, *Result) { events = append(events, tag+":end") },
		}
	}
	path := filepath.Join(t.TempDir(), "best.ckpt")
	sess, err := New(miniOpts(2, 8, 1,
		WithEpochs(1),
		WithCallbacks(record("a")),
		WithBestCheckpoint(path),
		WithCallbacks(record("b")),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	steps := res.StepsRun
	if steps == 0 {
		t.Fatal("no steps ran")
	}
	// Expected per-callback event counts: every step, every eval, one
	// checkpoint broadcast per save attempt, one end.
	saves := res.CheckpointsSaved + len(res.CheckpointErrors)
	if saves == 0 {
		t.Fatal("BestCheckpoint never attempted a save")
	}
	var a, b []string
	for _, e := range events {
		switch {
		case strings.HasPrefix(e, "a:"):
			a = append(a, strings.TrimPrefix(e, "a:"))
		case strings.HasPrefix(e, "b:"):
			b = append(b, strings.TrimPrefix(e, "b:"))
		}
	}
	// Both observers see every event the same number of times: one per
	// step, one per eval, one per checkpoint attempt, one end.
	evals := len(res.History)
	for tag, seq := range map[string][]string{"a": a, "b": b} {
		if got := countOf(seq, "step"); got != steps {
			t.Fatalf("%s: OnStep fired %d times, want %d", tag, got, steps)
		}
		if got := countOf(seq, "eval"); got != evals {
			t.Fatalf("%s: OnEval fired %d times, want %d", tag, got, evals)
		}
		if got := countOf(seq, "ckpt"); got != saves {
			t.Fatalf("%s: OnCheckpoint fired %d times, want %d", tag, got, saves)
		}
		if got := countOf(seq, "end"); got != 1 {
			t.Fatalf("%s: OnEnd fired %d times, want 1", tag, got)
		}
	}
	// Shape: training steps come first, evaluation after the epoch's steps,
	// and OnEnd is the very last pair of events, in registration order.
	if a[0] != "step" || events[0] != "a:step" {
		t.Fatalf("first events %v, want a:step first", events[:2])
	}
	if events[len(events)-2] != "a:end" || events[len(events)-1] != "b:end" {
		t.Fatalf("last events %v, want a:end then b:end", events[len(events)-2:])
	}
	// Registration order holds within each broadcast: a:step always directly
	// precedes b:step, and a:eval opens each eval broadcast. The checkpoint
	// broadcast is nested inside the eval broadcast (BestCheckpoint is
	// itself a callback between a and b), so the order per improving eval is
	// a:eval, a:ckpt, b:ckpt, b:eval.
	for i, e := range events {
		if e == "a:step" && events[i+1] != "b:step" {
			t.Fatalf("event %d: a:step followed by %q, want b:step", i, events[i+1])
		}
		if e == "a:ckpt" && events[i+1] != "b:ckpt" {
			t.Fatalf("event %d: a:ckpt followed by %q, want b:ckpt", i, events[i+1])
		}
		if e == "b:eval" && events[i-1] != "a:eval" && events[i-1] != "b:ckpt" {
			t.Fatalf("event %d: b:eval preceded by %q", i, events[i-1])
		}
	}
}

func countOf(xs []string, want string) int {
	n := 0
	for _, x := range xs {
		if x == want {
			n++
		}
	}
	return n
}

func TestEvalEveryCadence(t *testing.T) {
	var steps []int
	sess, err := New(miniOpts(2, 8, 1,
		WithEpochs(1),
		WithEvalEvery(5),
		WithEvalSamples(8),
		WithCallbacks(Funcs{Step: func(_ *Session, step int, _ replica.StepResult) { steps = append(steps, step) }}),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	total := sess.Engine().StepsPerEpoch()
	if total%5 == 0 {
		t.Fatalf("test setup: %d steps is a multiple of the cadence, so the forced final eval is not exercised", total)
	}
	if res.StepsRun != total || len(steps) != total || steps[0] != 1 || steps[total-1] != total {
		t.Fatalf("ran steps %v (StepsRun %d), want 1..%d", steps, res.StepsRun, total)
	}
	var want, got []int
	for s := 5; s < total; s += 5 {
		want = append(want, s)
	}
	want = append(want, total) // the final step always evaluates
	for _, pt := range res.History {
		got = append(got, pt.Step)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("evaluated at steps %v, want %v", got, want)
	}
	if res.EvalSerialSamples != 8*len(res.History) {
		t.Fatalf("EvalSerialSamples = %d, want %d", res.EvalSerialSamples, 8*len(res.History))
	}
	if res.TimeToPeak <= 0 || res.TimeToPeak > res.TotalTime {
		t.Fatalf("TimeToPeak %v outside (0, %v]", res.TimeToPeak, res.TotalTime)
	}
}

func TestResumedRunKeepsGlobalStepsAndCadence(t *testing.T) {
	dir := t.TempDir()
	opts := func(extra ...Option) []Option {
		return miniOpts(2, 8, 1, append([]Option{WithEpochs(2), WithEvalEvery(3), WithEvalSamples(8)}, extra...)...)
	}
	// Stop at the first step on both the eval and the snapshot cadence: the
	// best accuracy before that evaluation is still 0.
	const killAt = 3
	first, err := New(opts(WithSnapshotDir(dir), WithSnapshotEvery(3), WithCallbacks(StopAfterStep(killAt)))...)
	if err != nil {
		t.Fatal(err)
	}
	firstRes, err := first.Run()
	first.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(firstRes.History) != 1 || firstRes.History[0].Step != killAt || firstRes.PeakAccuracy <= 0 {
		t.Fatalf("interrupted run history %+v, want one eval at step %d above 0", firstRes.History, killAt)
	}

	var steps []int
	resumed, err := New(opts(WithResume(dir),
		WithCallbacks(Funcs{Step: func(_ *Session, step int, _ replica.StepResult) { steps = append(steps, step) }}))...)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if _, from, _ := resumed.ResumedFrom(); from != killAt {
		t.Fatalf("resumed from step %d, want %d", from, killAt)
	}
	// The snapshot is captured after the same step's evaluation, so it
	// records the peak that evaluation set.
	if resumed.restoredBest != firstRes.PeakAccuracy {
		t.Fatalf("snapshot best %v, want the interrupted run's peak %v", resumed.restoredBest, firstRes.PeakAccuracy)
	}
	res, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	total := 2 * resumed.Engine().StepsPerEpoch()
	if total%3 == 0 {
		t.Fatalf("test setup: %d steps is a multiple of the cadence, so the forced final eval is not exercised", total)
	}
	if res.StepsRun != total-killAt || steps[0] != killAt+1 || steps[len(steps)-1] != total {
		t.Fatalf("resumed run covered global steps %d..%d (%d steps), want %d..%d", steps[0], steps[len(steps)-1], res.StepsRun, killAt+1, total)
	}
	for _, pt := range res.History {
		if pt.Step%3 != 0 && pt.Step != total {
			t.Fatalf("eval at step %d breaks the global cadence", pt.Step)
		}
	}
	if last := res.History[len(res.History)-1]; last.Step != total {
		t.Fatalf("last eval at step %d, want the final step %d", last.Step, total)
	}
	if res.PeakAccuracy < firstRes.PeakAccuracy {
		t.Fatalf("PeakAccuracy %v lost the restored peak %v", res.PeakAccuracy, firstRes.PeakAccuracy)
	}

	// A resume at the end of training runs nothing and keeps the peak.
	end := filepath.Join(t.TempDir(), "end.snap")
	if err := resumed.Snapshot(end); err != nil {
		t.Fatal(err)
	}
	done, err := New(opts(WithResume(end))...)
	if err != nil {
		t.Fatal(err)
	}
	defer done.Close()
	doneRes, err := done.Run()
	if err != nil {
		t.Fatal(err)
	}
	if doneRes.StepsRun != 0 || len(doneRes.History) != 0 || doneRes.PeakAccuracy != res.PeakAccuracy {
		t.Fatalf("resume at the end ran %d steps, %d evals (peak %v), want 0, 0 (%v)",
			doneRes.StepsRun, len(doneRes.History), doneRes.PeakAccuracy, res.PeakAccuracy)
	}
}

func TestEstimatorDistributedParity(t *testing.T) {
	// The §3.3 bottleneck, measured deterministically: with W replicas the
	// Estimator strategy pushes W× more eval samples through a single worker
	// than the distributed strategy pushes through each worker.
	const world = 4
	run := func(strategy EvalStrategy) *Result {
		sess, err := New(miniOpts(world, 4, 1,
			WithEpochs(2),
			WithEvalSamples(8),
			WithEvalStrategy(strategy),
		)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dist := run(Distributed{})
	est := run(Estimator{})
	if est.EvalSerialSamples != world*dist.EvalSerialSamples {
		t.Fatalf("estimator serial samples = %d, want %d (= %d × distributed %d)",
			est.EvalSerialSamples, world*dist.EvalSerialSamples, world, dist.EvalSerialSamples)
	}
	// Both strategies score the same distribution; results must be in-range
	// and training must have happened in both.
	if dist.PeakAccuracy <= 0 || est.PeakAccuracy <= 0 {
		t.Fatalf("degenerate accuracies: dist %.3f est %.3f", dist.PeakAccuracy, est.PeakAccuracy)
	}
}

func TestStrategyNames(t *testing.T) {
	if (Distributed{}).Name() != "distributed" || (Estimator{}).Name() != "estimator" {
		t.Fatal("strategy names wrong")
	}
}

func TestTargetAccuracyStopsEarly(t *testing.T) {
	sess, err := New(miniOpts(2, 8, 2, WithEpochs(50), WithTarget(0.5))...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.ReachedGoal {
		t.Fatalf("never reached 0.5 accuracy (peak %.3f after %d steps)", res.PeakAccuracy, res.StepsRun)
	}
	if !res.Stopped || res.StepsRun >= 50*sess.Engine().StepsPerEpoch() {
		t.Fatal("did not stop early despite reaching target")
	}
}

func TestBestCheckpointSaving(t *testing.T) {
	path := filepath.Join(t.TempDir(), "best.ckpt")
	sess, err := New(miniOpts(2, 8, 2, WithEpochs(2), WithBestCheckpoint(path))...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointsSaved == 0 {
		t.Fatal("no best-so-far checkpoint written")
	}
	if len(res.CheckpointErrors) != 0 {
		t.Fatalf("unexpected checkpoint errors: %v", res.CheckpointErrors)
	}
	// The checkpoint must load back into a fresh model of the same family.
	cfg, _ := efficientnet.ConfigByName("pico", 4)
	cfg.Resolution = 16
	fresh := efficientnet.New(rand.New(rand.NewSource(123)), cfg)
	if err := checkpoint.LoadWeightsFile(path, fresh); err != nil {
		t.Fatalf("best checkpoint unloadable: %v", err)
	}
}

func TestCheckpointErrorsSurfaceInResult(t *testing.T) {
	// An unwritable checkpoint path must not abort training, but the
	// failures must be first-class in the Result — not only whispered
	// through a progress callback.
	path := filepath.Join(t.TempDir(), "no-such-dir", "best.ckpt")
	var notified int
	sess, err := New(miniOpts(2, 8, 1,
		WithEpochs(1),
		WithBestCheckpoint(path),
		WithCallbacks(Funcs{Checkpoint: func(_ *Session, _ string, err error) {
			if err != nil {
				notified++
			}
		}}),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsRun == 0 {
		t.Fatal("training aborted by checkpoint failure")
	}
	if len(res.CheckpointErrors) == 0 {
		t.Fatal("checkpoint failures not surfaced in Result.CheckpointErrors")
	}
	if res.CheckpointsSaved != 0 {
		t.Fatalf("CheckpointsSaved = %d for unwritable path", res.CheckpointsSaved)
	}
	if notified != len(res.CheckpointErrors) {
		t.Fatalf("OnCheckpoint notified %d failures, Result has %d", notified, len(res.CheckpointErrors))
	}
}

func TestTrailingAccuracyWindow(t *testing.T) {
	ta := NewTrailingAccuracy(2)
	for _, acc := range []float64{0.1, 0.3, 0.5} {
		ta.OnStep(nil, 0, replica.StepResult{Accuracy: acc})
	}
	if got := ta.Mean(); got != 0.4 {
		t.Fatalf("trailing mean = %v, want 0.4 (last two of three)", got)
	}
}

func TestSessionRerunContinuesTraining(t *testing.T) {
	sess, err := New(miniOpts(2, 8, 1, WithEpochs(1))...)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if first.StepsRun == 0 || second.StepsRun == 0 {
		t.Fatal("rerun did not train")
	}
	if sync := sess.Engine().WeightsInSync(); sync != "" {
		t.Fatalf("replicas out of sync after rerun: %s", sync)
	}
}

func TestMiniRecipeReachesAccuracy(t *testing.T) {
	// The preset smoke test: the MiniRecipe composition (LARS + linear
	// scaling + warmup + poly decay + distributed BN + bf16) must clear 0.5
	// top-1 on 8-class SynthImageNet — far above the 0.125 chance rate. The
	// dataset is downscaled (resolution 16) and the run early-stops at 0.55
	// to keep the test fast; the recipe math is untouched.
	sess, err := New(
		MiniRecipe(),
		WithData(data.MiniConfig(8, 2048, 16)),
		WithEpochs(6),
		WithEvalEvery(16),
		WithTarget(0.55),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakAccuracy <= 0.5 {
		t.Fatalf("MiniRecipe peak top-1 %.3f, want > 0.5", res.PeakAccuracy)
	}
	if sync := sess.Engine().WeightsInSync(); sync != "" {
		t.Fatalf("replicas out of sync: %s", sync)
	}
}
