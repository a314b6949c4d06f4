package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"effnetscale/internal/bf16"
	"effnetscale/internal/comm"
	"effnetscale/internal/data"
	"effnetscale/internal/efficientnet"
	"effnetscale/internal/replica"
	"effnetscale/internal/schedule"
	"effnetscale/internal/telemetry"
	"effnetscale/internal/train"
)

// train-recipe: train.MiniRecipe() run through train.Session.Run for the
// recipe's fixed eight epochs, with distributed evaluation and async
// snapshots. MiniRecipe fixes the model (pico), the world (4 replicas × 16),
// LARS with warmup and polynomial decay, BN over all replicas, bf16 and
// augmentation with the default prefetch depth 2; the benchmark adds only
// the seeded dataset and the eval/snapshot cadence.
const (
	// recipeTarget is the top-1 the run must reach; time_to_target_s ends at
	// the first evaluation at or above it. Four times chance on 8 classes:
	// every seed tried reaches it at the same evaluation (step 32), where
	// the steps at which later targets such as 0.95 are first reached vary
	// by up to 40% between dataset seeds, too much to bound a time on.
	recipeTarget        = 0.5
	recipeEvalEvery     = 16
	recipeSnapshotEvery = 32
	recipeKeepLast      = 2
	// recipeReplaySteps is how many leading steps a second same-seed
	// session replays to check the per-step losses repeat bit for bit.
	recipeReplaySteps = 16
	// recipeWarmSteps is how many steps a throwaway same-seed session runs
	// inside each set-up: they start the input pipelines and fill the
	// kernel scratch arenas before the timed session's first step.
	recipeWarmSteps = 4

	recipeWorld       = 4
	recipePerReplica  = 16
	recipeClasses     = 8
	recipeTrainSize   = 2048
	recipeResolution  = 32
	recipeModel       = "pico"
	recipeModelSeed   = 42 // MiniRecipe's model-init seed
	recipeWeightDecay = 1e-5
)

// recipeData is MiniRecipe's dataset with the workload seed.
func recipeData(seed int64) data.Config {
	dc := data.MiniConfig(recipeClasses, recipeTrainSize, recipeResolution)
	dc.Seed = seed
	return dc
}

// recipeOptions is the workload's session configuration.
func recipeOptions(seed int64, snapDir string, extra ...train.Option) []train.Option {
	return append([]train.Option{
		train.MiniRecipe(),
		train.WithData(recipeData(seed)),
		train.WithEvalEvery(recipeEvalEvery),
		train.WithSnapshotDir(snapDir),
		train.WithSnapshotEvery(recipeSnapshotEvery),
		train.WithKeepLast(recipeKeepLast),
	}, extra...)
}

// stepLog records per-step losses and the wall time of each step as seen
// from the session's callbacks: the interval between consecutive OnStep
// calls minus any evaluation that ran in it (timed by timedEval).
type stepLog struct {
	tr       *Tracer
	runSpan  int
	runStart time.Time
	last     time.Time     // previous OnStep, or the run start
	evalDur  time.Duration // evaluation time since last

	losses   []float64
	stepDurs []float64 // ms
	evalMS   []float64

	targetAt   time.Duration // run start to first eval ≥ target (0 = not yet)
	targetStep int
}

func (l *stepLog) begin(runSpan int) {
	l.runSpan = runSpan
	l.runStart = time.Now()
	l.last = l.runStart
}

func (l *stepLog) onStep(loss float64) {
	now := time.Now()
	d := now.Sub(l.last) - l.evalDur
	l.tr.Record("train.step", l.runSpan, now.Add(-d), now)
	l.stepDurs = append(l.stepDurs, ms(d))
	l.losses = append(l.losses, loss)
	l.last, l.evalDur = now, 0
}

func (l *stepLog) onEval(pt train.EvalPoint) {
	if l.targetAt == 0 && pt.Accuracy >= recipeTarget {
		l.targetAt = time.Since(l.runStart)
		l.targetStep = pt.Step
	}
}

// timedEval wraps the distributed evaluation strategy to time each pass.
type timedEval struct {
	train.Distributed
	log *stepLog
}

// Evaluate implements train.EvalStrategy.
func (t timedEval) Evaluate(e *replica.Engine, n int) (float64, int, error) {
	t0 := time.Now()
	acc, serial, err := t.Distributed.Evaluate(e, n)
	t1 := time.Now()
	t.log.tr.Record("train.eval", t.log.runSpan, t0, t1)
	t.log.evalDur += t1.Sub(t0)
	t.log.evalMS = append(t.log.evalMS, ms(t1.Sub(t0)))
	return acc, serial, err
}

func runRecipe(cfg *runConfig, rep *report) error {
	log := &stepLog{tr: cfg.tr}
	obs := &commObserver{}
	var snapWrites []float64
	opts := []train.Option{
		train.WithEvalStrategy(timedEval{log: log}),
		train.WithCallbacks(train.Funcs{
			Step: func(_ *train.Session, _ int, res replica.StepResult) { log.onStep(res.Loss) },
			Eval: func(_ *train.Session, pt train.EvalPoint) { log.onEval(pt) },
		}),
	}
	if cfg.tr != nil {
		opts = append(opts,
			train.WithCollective(comm.InstrumentProvider(comm.RingProvider(), obs)),
			train.WithTelemetry(telemetry.SinkFuncs{SnapshotFn: func(r telemetry.SnapshotRecord) {
				snapWrites = append(snapWrites, ms(r.Wall))
			}}))
	}
	snapDir := filepath.Join(cfg.dir, "snapshots")
	n := 0
	sess, setup, err := repeatSetup(func() (*train.Session, error) {
		n++
		// Each set-up gets its own directories so a released one leaves no
		// snapshot state behind for the next.
		warm, err := train.New(recipeOptions(cfg.seed, fmt.Sprintf("%s-warm-%d", snapDir, n),
			train.WithCallbacks(train.StopAfterStep(recipeWarmSteps)))...)
		if err != nil {
			return nil, err
		}
		_, err = warm.Run()
		warm.Close()
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		return train.New(recipeOptions(cfg.seed, fmt.Sprintf("%s-%d", snapDir, n), opts...)...)
	}, func(s *train.Session) { s.Close() })
	if err != nil {
		return err
	}
	defer sess.Close()
	rep.e2e["setup_s"] = setup

	runSpan, endRun := cfg.tr.Begin("train.run", 0)
	rt0 := readRuntime()
	log.begin(runSpan)
	res, err := sess.Run()
	wall := time.Since(log.runStart)
	rt1 := readRuntime()
	endRun()
	if err != nil {
		return err
	}
	if rss, err := peakRSSMB(); err == nil {
		rep.e2e["peak_rss_mb"] = rss
	} else {
		rep.fail("peak RSS: %v", err)
	}
	steps := len(log.losses)
	rep.attempted = int64(steps)
	images := float64(steps * sess.GlobalBatch())
	rep.e2e["img_per_s"] = images / wall.Seconds()
	rep.e2e["latency_p50_ms"] = percentile(log.stepDurs, 50)
	rep.layer["train.step_ms_p90"] = percentile(log.stepDurs, 90)
	rep.e2e["time_to_target_s"] = log.targetAt.Seconds()
	rep.layer["traced.img_per_s"] = rep.e2e["img_per_s"]
	rep.layer["traced.latency_p50_ms"] = rep.e2e["latency_p50_ms"]

	checkTraining(rep, log.losses, sess.Engine())
	if log.targetAt == 0 {
		rep.fail("top-1 never reached the target %.2f (peak %.4f)", recipeTarget, res.PeakAccuracy)
	}
	for _, e := range res.CheckpointErrors {
		rep.fail("snapshot write: %v", e)
	}
	if res.CheckpointsSaved == 0 {
		rep.fail("no snapshot was written")
	}
	rep.digest = lossDigest(log.losses)
	fmt.Printf("loss_digest %016x steps %d target_step %d peak_top1 %.4f\n", rep.digest, steps, log.targetStep, res.PeakAccuracy)

	// Determinism: a fresh same-seed session replays the leading steps.
	replay := &stepLog{tr: nil}
	rs, err := train.New(recipeOptions(cfg.seed, snapDir+"-replay",
		train.WithCallbacks(train.Funcs{Step: func(_ *train.Session, _ int, r replica.StepResult) { replay.onStep(r.Loss) }}),
		train.WithCallbacks(train.StopAfterStep(recipeReplaySteps)))...)
	if err != nil {
		return err
	}
	replay.begin(0)
	_, err = rs.Run()
	rs.Close()
	if err != nil {
		return err
	}
	compareLosses(rep, log.losses, replay.losses, recipeReplaySteps)

	if cfg.tr == nil {
		return nil
	}
	replicaLayer(rep, *res.Telemetry)
	rep.allocLayer(rt0, rt1, steps)
	obs.report(rep, steps, recipeWorld)
	rep.layer["train.eval_ms"] = mean(log.evalMS)
	rep.layer["train.steps_to_target"] = float64(log.targetStep)
	rep.layer["checkpoint.write_ms"] = mean(snapWrites)
	if paths, err := filepath.Glob(fmt.Sprintf("%s-%d/step-*.ckpt", snapDir, setupReps)); err == nil && len(paths) > 0 {
		if st, err := os.Stat(paths[len(paths)-1]); err == nil {
			rep.layer["checkpoint.snapshot_bytes"] = float64(st.Size())
		}
	}
	if err := probeCheckpoint(cfg.tr, sess.Engine(), "", rep); err != nil {
		return err
	}
	mc, err := probeModelConfig(recipeModel, recipeClasses, recipeResolution)
	if err != nil {
		return err
	}
	ec := recipeEngineConfig(cfg.seed)
	return probeLayers(cfg, rep, mc, recipePerReplica, &ec)
}

// recipeEngineConfig is the replica configuration MiniRecipe resolves to,
// used for the single-replica baseline probe.
func recipeEngineConfig(seed int64) replica.Config {
	return replica.Config{
		World: recipeWorld, PerReplicaBatch: recipePerReplica, Model: recipeModel,
		Dataset: data.New(recipeData(seed)), OptimizerName: "lars", WeightDecay: recipeWeightDecay,
		Schedule: schedule.Constant(0.1), Precision: bf16.DefaultPolicy, LabelSmoothing: 0.1, Seed: recipeModelSeed,
		DropoutOverride: -1, DropConnectOverride: -1, BNMomentum: 0.9,
	}
}

// probeLayers runs the layer probes shared by every workload; engCfg, when
// not nil, also gets the single-replica baseline.
func probeLayers(cfg *runConfig, rep *report, mc efficientnet.Config, batch int, engCfg *replica.Config) error {
	m := probeEfficientNet(cfg.tr, mc, batch, cfg.seed, rep)
	probeTensor(cfg.tr, m, batch, cfg.seed, rep)
	probeLARS(cfg.tr, m, rep)
	probeData(cfg.tr, cfg.seed, rep)
	if engCfg != nil {
		return probeWorld1(cfg.tr, *engCfg, rep)
	}
	return nil
}

// checkTraining fails every non-finite step loss and a replica divergence.
func checkTraining(rep *report, losses []float64, eng *replica.Engine) {
	for i, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			rep.fail("step %d loss is %v", i+1, l)
		}
	}
	if d := eng.WeightsInSync(); d != "" {
		rep.fail("replica weights diverged at %s", d)
	}
}

// compareLosses fails unless the first n losses of two same-seed runs are
// bitwise equal.
func compareLosses(rep *report, a, b []float64, n int) {
	if len(a) < n || len(b) < n {
		rep.fail("determinism replay: have %d and %d losses, want %d", len(a), len(b), n)
		return
	}
	for i := 0; i < n; i++ {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			rep.fail("determinism replay: step %d loss %v, same-seed replay %v", i+1, a[i], b[i])
			return
		}
	}
}

// lossDigest is FNV-1a over the per-step loss bits: equal digests mean
// identical loss trajectories.
func lossDigest(losses []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, l := range losses {
		b := math.Float64bits(l)
		for i := 0; i < 8; i++ {
			h ^= b & 0xff
			h *= 1099511628211
			b >>= 8
		}
	}
	return h
}
