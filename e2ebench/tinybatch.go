package main

import (
	"fmt"
	"os"
	"time"

	"effnetscale/internal/bf16"
	"effnetscale/internal/comm"
	"effnetscale/internal/data"
	"effnetscale/internal/replica"
	"effnetscale/internal/schedule"
	"effnetscale/internal/telemetry"
)

// train-tinybatch: replica.Engine.Step driven directly for a fixed step
// count — pico at res 16, 8 replicas × 2, BN over all 8, ring collectives,
// the default 32 KiB gradient buckets, LARS; no augmentation, evaluation or
// snapshots. Per-replica compute is tiny, so collectives, lockstep waits,
// the optimizer and per-op allocation dominate the step.
const (
	tinyWorld      = 8
	tinyPerReplica = 2
	tinyResolution = 16
	tinyTrainSize  = 2048
	// tinyWarmSteps run inside set-up: they start the input pipelines and
	// fill the kernel scratch arenas before the first timed step.
	tinyWarmSteps = 8
	// tinyStepsPerSecond converts --seconds into the fixed step count, so
	// the work (and the loss trajectory) depends only on the arguments.
	tinyStepsPerSecond = 40
	// tinyReplaySteps is how many leading steps a second same-seed engine
	// replays to check the per-step losses repeat bit for bit.
	tinyReplaySteps = 24
)

// tinyConfig is the workload's engine configuration for totalSteps steps
// (the LR schedule decays to zero over them).
func tinyConfig(seed int64, totalSteps int) replica.Config {
	dc := data.MiniConfig(recipeClasses, tinyTrainSize, tinyResolution)
	dc.Seed = seed
	globalBatch := tinyWorld * tinyPerReplica
	epochs := float64(totalSteps*globalBatch) / tinyTrainSize
	return replica.Config{
		World: tinyWorld, PerReplicaBatch: tinyPerReplica, Model: recipeModel,
		Dataset: data.New(dc), OptimizerName: "lars", WeightDecay: recipeWeightDecay,
		Schedule: schedule.Warmup{Epochs: epochs / 4, Inner: schedule.Polynomial{
			Peak: schedule.ScaledLR(40, globalBatch), TotalEpochs: epochs, Power: 2}},
		BNGroupSize: tinyWorld, Precision: bf16.DefaultPolicy, LabelSmoothing: 0.1, Seed: recipeModelSeed,
		DropoutOverride: -1, DropConnectOverride: -1, NoAugment: true, BNMomentum: 0.9,
		Collective: comm.RingProvider(),
	}
}

func runTinyBatch(cfg *runConfig, rep *report) error {
	timed := cfg.seconds * tinyStepsPerSecond
	total := tinyWarmSteps + timed
	ec := tinyConfig(cfg.seed, total)
	obs := &commObserver{}
	var rec *telemetry.Recorder
	if cfg.tr != nil {
		ec.Collective = comm.InstrumentProvider(ec.Collective, obs)
		rec = telemetry.NewRecorder()
		ec.Telemetry = rec
	}
	var losses []float64
	eng, setup, err := repeatSetup(func() (*replica.Engine, error) {
		e, err := replica.New(ec)
		if err != nil {
			return nil, err
		}
		losses = losses[:0]
		for i := 0; i < tinyWarmSteps; i++ {
			r, err := e.Step()
			if err != nil {
				e.Close()
				return nil, err
			}
			losses = append(losses, r.Loss)
		}
		return e, nil
	}, func(e *replica.Engine) { e.Close() })
	if err != nil {
		return err
	}
	defer eng.Close()
	rep.e2e["setup_s"] = setup
	if rec != nil {
		// The summary covers the timed steps only, not the warm-up.
		rec.BeginRun(telemetry.RunInfo{World: tinyWorld, GlobalBatch: eng.GlobalBatch()})
	}
	obs.reset()

	runSpan, endRun := cfg.tr.Begin("train.run", 0)
	stepMS := make([]float64, 0, timed)
	rt0 := readRuntime()
	start := time.Now()
	for i := 0; i < timed; i++ {
		t0 := time.Now()
		r, err := eng.Step()
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("step %d: %w", tinyWarmSteps+i+1, err)
		}
		cfg.tr.Record("replica.step", runSpan, t0, t1)
		stepMS = append(stepMS, ms(t1.Sub(t0)))
		losses = append(losses, r.Loss)
	}
	wall := time.Since(start)
	rt1 := readRuntime()
	endRun()
	if rss, err := peakRSSMB(); err == nil {
		rep.e2e["peak_rss_mb"] = rss
	} else {
		rep.fail("peak RSS: %v", err)
	}
	rep.attempted = int64(total)
	rep.e2e["img_per_s"] = float64(timed*eng.GlobalBatch()) / wall.Seconds()
	rep.e2e["latency_p50_ms"] = percentile(stepMS, 50)
	rep.layer["train.step_ms_p90"] = percentile(stepMS, 90)
	rep.e2e["time_to_target_s"] = wall.Seconds()
	rep.layer["traced.img_per_s"] = rep.e2e["img_per_s"]
	rep.layer["traced.latency_p50_ms"] = rep.e2e["latency_p50_ms"]

	checkTraining(rep, losses, eng)
	rep.digest = lossDigest(losses)
	fmt.Printf("loss_digest %016x steps %d final_loss %.4f\n", rep.digest, len(losses), losses[len(losses)-1])

	replay, err := replica.New(tinyConfig(cfg.seed, total))
	if err != nil {
		return err
	}
	var again []float64
	for i := 0; i < tinyReplaySteps; i++ {
		r, err := replay.Step()
		if err != nil {
			replay.Close()
			return err
		}
		again = append(again, r.Loss)
	}
	replay.Close()
	compareLosses(rep, losses, again, tinyReplaySteps)

	if cfg.tr == nil {
		return nil
	}
	replicaLayer(rep, rec.Summary())
	rep.allocLayer(rt0, rt1, timed)
	obs.report(rep, timed, tinyWorld)
	pid, end := cfg.tr.Begin("probe.eval", 0)
	t0 := time.Now()
	if _, err := eng.Evaluate(64); err != nil {
		return err
	}
	cfg.tr.Record("train.eval", pid, t0, time.Now())
	end()
	rep.layer["train.eval_ms"] = ms(time.Since(t0))
	rep.layer["train.steps_to_target"] = float64(total)
	dir := cfg.dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := probeCheckpoint(cfg.tr, eng, dir, rep); err != nil {
		return err
	}
	mc, err := probeModelConfig(recipeModel, recipeClasses, tinyResolution)
	if err != nil {
		return err
	}
	probeCfg := tinyConfig(cfg.seed, total)
	return probeLayers(cfg, rep, mc, tinyPerReplica, &probeCfg)
}
