package train

import (
	"fmt"
	"os"
	"strings"
	"time"

	"effnetscale/internal/checkpoint"
	"effnetscale/internal/elastic"
	"effnetscale/internal/mesh"
	"effnetscale/internal/replica"
	"effnetscale/internal/schedule"
	"effnetscale/internal/telemetry"
)

// loopComponent is the snapshot component the Session owns on top of the
// engine's: loop-level progress that is not engine state (best accuracy so
// far, which seeds the resumed run's peak tracking). The key is on-disk
// data, so it keeps its historical name.
const loopComponent = "trainloop"

// EvalPoint is one evaluation snapshot.
type EvalPoint struct {
	Step     int
	Epoch    float64
	Accuracy float64
	// Elapsed is the wall-clock time since the run started.
	Elapsed time.Duration
	// Wall is this evaluation's own wall-clock cost.
	Wall time.Duration
	// SerialSamples is the evaluation samples the busiest single worker
	// processed — the per-point form of Result.EvalSerialSamples.
	SerialSamples int
}

// Result summarizes a finished run.
type Result struct {
	History      []EvalPoint
	PeakAccuracy float64
	// TimeToPeak is the elapsed wall-clock time at which peak accuracy was
	// first observed — the paper's Figure 1 metric. Each Run seeds
	// PeakAccuracy with the session's best so far (restored from the
	// snapshot on resume), and TimeToPeak stays zero unless this run
	// improves on it (wall-clock is not resumable state).
	TimeToPeak time.Duration
	TotalTime  time.Duration
	// StepsRun counts steps executed by this Run call; a resumed run counts
	// only post-resume steps (EvalPoint.Step carries the global numbering).
	StepsRun int
	// EvalSerialSamples counts evaluation samples processed serially by the
	// busiest worker — the deterministic measure of the §3.3 bottleneck
	// (the Estimator strategy processes world× more than Distributed).
	EvalSerialSamples int
	// EvalWallTime accumulates wall-clock time spent in evaluation.
	EvalWallTime time.Duration
	// Stopped reports that Session.Stop ended the run before all epochs.
	Stopped bool
	// ReachedGoal reports that a StopAtAccuracy callback (WithTarget) ended
	// the run at its target accuracy.
	ReachedGoal bool
	// CheckpointsSaved counts successful checkpoint and snapshot writes.
	CheckpointsSaved int
	// CheckpointErrors collects checkpoint- and snapshot-save failures.
	// Saving never aborts training, but the failures are first-class
	// results — not whispers through a progress log.
	CheckpointErrors []error
	// Resumed reports that this run continued from a WithResume snapshot
	// rather than from step 0.
	Resumed bool
	// Telemetry is the run's aggregated step-phase/throughput/overlap
	// summary — nil unless the session was built WithTelemetry.
	Telemetry *telemetry.Summary
}

// Session is an assembled training job: a validated configuration, a live
// replica engine, and the callbacks and evaluation strategy that observe it.
type Session struct {
	cfg       *config
	eng       *replica.Engine
	sched     schedule.Schedule
	callbacks []Callback

	stop bool
	cur  *Result

	// writer persists periodic snapshots asynchronously (nil without
	// WithSnapshotEvery).
	writer *checkpoint.Writer
	// rec aggregates step-phase telemetry (nil without WithTelemetry).
	rec *telemetry.Recorder
	// best is the best evaluation accuracy seen across the session's
	// lifetime, including the pre-resume history restored from a snapshot.
	best float64
	// restoredBest is the best accuracy the resume snapshot recorded —
	// frozen at restore time so callbacks like BestCheckpoint can seed
	// their improvement thresholds without racing s.best's live updates.
	restoredBest float64
	// resumeStep/resumeFrom record a WithResume restore; resumePending
	// marks that the next Run should start mid-loop at resumeStep.
	resumeStep    int
	resumeFrom    string
	resumePending bool
}

// New validates opts eagerly and assembles the engine. All configuration
// errors — unknown model or optimizer, a BN group that does not divide the
// world, a missing dataset — surface here, before any training work.
func New(opts ...Option) (*Session, error) {
	c := defaultConfig()
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("train: nil Option")
		}
		if err := opt(c); err != nil {
			return nil, err
		}
	}
	if c.dataset == nil {
		return nil, fmt.Errorf("train: a dataset is required (use WithDataset, WithData, or a preset)")
	}
	msh := c.mesh
	if msh == (mesh.Shape{}) {
		msh = mesh.Shape{Data: c.world, Model: 1}
	}
	if msh.World() != c.world {
		return nil, fmt.Errorf("train: mesh %s covers %d ranks but the world is %d (WithWorld and WithMesh disagree)", msh, msh.World(), c.world)
	}
	// BN groups tile the data axis: the m model shards of a group compute
	// identical activations, so only data-parallel replicas contribute
	// distinct batch statistics.
	bnGroup := c.bnGroup
	if bnGroup == bnGroupWorld {
		bnGroup = msh.Data
	}
	if msh.Data%bnGroup != 0 {
		return nil, fmt.Errorf("train: BN group size %d does not divide the mesh's data axis %d", bnGroup, msh.Data)
	}
	if c.snapshotEvery > 0 && c.snapshotDir == "" {
		return nil, fmt.Errorf("train: WithSnapshotEvery needs WithSnapshotDir")
	}
	// An elastic resume must solve the batch geometry before the engine and
	// schedule exist: the snapshot's global batch wins over the configured
	// per-replica batch and accumulation, which act only as a factorization
	// hint. The resolved geometry feeds the engine, the LR schedule and the
	// lr-curve fingerprint, so a preserved global batch keeps all three
	// identical to the interrupted run's.
	var elasticSnap *checkpoint.Snapshot
	var elasticSrc string
	if c.resume != "" && c.elastic {
		if msh.Model > 1 {
			return nil, fmt.Errorf("train: elastic resume only re-partitions the data axis; the %s mesh has a model axis", msh)
		}
		snap, src, err := loadSnapshot(c.resume)
		if err != nil {
			return nil, fmt.Errorf("train: resume: %w", err)
		}
		plan, err := elastic.Plan(snap, mesh.Shape{Data: msh.Data, Model: 1},
			elastic.WithGeometryHint(c.perReplicaBatch, c.gradAccum))
		if err != nil {
			return nil, fmt.Errorf("train: resume %s: %w", src, err)
		}
		c.perReplicaBatch, c.gradAccum = plan.PerReplicaBatch, plan.GradAccum
		elasticSnap, elasticSrc = snap, src
	}
	globalBatch := msh.Data * c.perReplicaBatch * c.gradAccum
	sched := c.scheduleFn(globalBatch, c.epochs)

	var rec *telemetry.Recorder
	if c.telemetryOn {
		rec = telemetry.NewRecorder(c.telemetrySinks...)
	}

	eng, err := replica.New(replica.Config{
		World:               c.world,
		Mesh:                msh,
		PerReplicaBatch:     c.perReplicaBatch,
		Model:               c.model,
		Dataset:             c.dataset,
		OptimizerName:       c.optimizer,
		WeightDecay:         c.weightDecay,
		Schedule:            sched,
		BNGroupSize:         bnGroup,
		Slice:               c.slice,
		Precision:           c.precision,
		LabelSmoothing:      float32(c.labelSmoothing),
		Seed:                c.seed,
		DropoutOverride:     c.dropout,
		DropConnectOverride: c.dropConnect,
		NoAugment:           !c.augment,
		BNMomentum:          c.bnMomentum,
		GradAccumSteps:      c.gradAccum,
		EMADecay:            c.emaDecay,
		Collective:          c.collective,
		GradBucketBytes:     c.gradBuckets,
		NoBackwardOverlap:   c.noBackwardOverlap,
		PrefetchDepth:       c.prefetch,
		Telemetry:           rec,
	})
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}

	s := &Session{cfg: c, eng: eng, sched: sched, callbacks: c.callbacks, rec: rec}
	if c.targetAcc > 0 {
		s.callbacks = append(s.callbacks, StopAtAccuracy(c.targetAcc))
	}
	if c.resume != "" {
		var rerr error
		if c.elastic {
			rerr = s.restoreElastic(elasticSnap, elasticSrc, msh)
		} else {
			rerr = s.restoreFrom(c.resume)
		}
		if rerr != nil {
			eng.Close()
			return nil, rerr
		}
	}
	if c.snapshotEvery > 0 {
		w, err := checkpoint.NewWriter(c.snapshotDir, c.keepLast)
		if err != nil {
			eng.Close()
			return nil, fmt.Errorf("train: snapshot writer: %w", err)
		}
		s.writer = w
	}
	return s, nil
}

// loadSnapshot reads a snapshot from a file, or from a directory the newest
// readable one (falling back past files a crash truncated mid-write).
func loadSnapshot(path string) (snap *checkpoint.Snapshot, src string, err error) {
	if info, statErr := os.Stat(path); statErr == nil && info.IsDir() {
		return checkpoint.ReadLatestSnapshot(path)
	}
	snap, err = checkpoint.ReadSnapshotFile(path)
	return snap, path, err
}

// restoreFrom loads a snapshot (a file, or the newest readable one in a
// directory) and restores the engine and session progress from it.
func (s *Session) restoreFrom(path string) error {
	snap, src, err := loadSnapshot(path)
	if err != nil {
		return fmt.Errorf("train: resume: %w", err)
	}
	return s.restoreSnapshot(snap, src)
}

// restoreElastic reshards the pre-loaded snapshot to this session's world
// and restores from the result. New already solved the geometry from the
// same snapshot, so the reshard here is either the identity (same world —
// the original snapshot passes through, keeping the bit-for-bit path) or the
// per-rank re-partition.
func (s *Session) restoreElastic(snap *checkpoint.Snapshot, src string, msh mesh.Shape) error {
	resharded, err := elastic.Reshard(snap, mesh.Shape{Data: msh.Data, Model: 1},
		elastic.WithGeometryHint(s.cfg.perReplicaBatch, s.cfg.gradAccum))
	if err != nil {
		return fmt.Errorf("train: resume %s: %w", src, err)
	}
	return s.restoreSnapshot(resharded, src)
}

// restoreSnapshot restores the engine and session progress from a loaded
// snapshot.
func (s *Session) restoreSnapshot(snap *checkpoint.Snapshot, src string) error {
	// Strict component accounting: everything in the snapshot must be
	// either engine state or the session's loop component. Anything else
	// means the snapshot came from a richer setup and dropping it silently
	// would not be a faithful resume. Surplus replica/<r> components are
	// exempt — they mean the snapshot's world is larger than this session's,
	// and the engine's fingerprint validation turns that into the world-
	// mismatch error that names both sizes and the elastic escape hatch.
	expected := map[string]bool{loopComponent: true}
	for _, k := range s.eng.StateComponents() {
		expected[k] = true
	}
	for _, k := range snap.Keys() {
		if !expected[k] && !strings.HasPrefix(k, "replica/") {
			return fmt.Errorf("train: resume %s: snapshot carries unknown component %q", src, k)
		}
	}
	if err := s.eng.RestoreState(snap); err != nil {
		return fmt.Errorf("train: resume %s: %w", src, err)
	}
	// The loop component is optional (engine-level snapshots lack it); when
	// present it must be well-formed and agree with this session's length
	// and schedule.
	if lc, ok := snap.Components[loopComponent]; ok {
		if err := s.restoreLoopComponent(lc); err != nil {
			return fmt.Errorf("train: resume %s: %w", src, err)
		}
	}
	s.resumeStep = s.eng.StepCount()
	s.resumeFrom = src
	s.resumePending = true
	return nil
}

// ResumedFrom reports the snapshot a WithResume session restored from and
// the step it restored to (ok=false for fresh sessions).
func (s *Session) ResumedFrom() (path string, step int, ok bool) {
	return s.resumeFrom, s.resumeStep, s.resumeFrom != ""
}

// Engine exposes the underlying replica engine for direct inspection
// (WeightsInSync, Replica, StepsPerEpoch, ...).
func (s *Session) Engine() *replica.Engine { return s.eng }

// Close flushes and stops the async snapshot writer, flushes the telemetry
// sinks, and releases the engine's input-pipeline goroutines and buffers.
// The returned error is a telemetry sink flush failure (a full disk under a
// JSONL sink, say) — snapshot-write failures surfaced during the run via
// Result.CheckpointErrors. A Session must not Run after Close. Idempotent.
func (s *Session) Close() error {
	if s.writer != nil {
		s.writer.Close()
	}
	var err error
	if s.rec != nil {
		if cerr := s.rec.Close(); cerr != nil {
			err = fmt.Errorf("train: telemetry: %w", cerr)
		}
	}
	s.eng.Close()
	return err
}

// Telemetry exposes the session's telemetry recorder (nil unless built
// WithTelemetry) for direct Summary reads between Runs.
func (s *Session) Telemetry() *telemetry.Recorder { return s.rec }

// GlobalBatch returns the effective global batch size.
func (s *Session) GlobalBatch() int { return s.eng.GlobalBatch() }

// Schedule returns the resolved LR schedule (after linear scaling).
func (s *Session) Schedule() schedule.Schedule { return s.sched }

// Strategy returns the configured evaluation strategy.
func (s *Session) Strategy() EvalStrategy { return s.cfg.strategy }

// Stop requests that the run end after the current step. Safe to call from
// callbacks; outside callbacks it takes effect at the next step boundary.
func (s *Session) Stop() { s.stop = true }

// markGoal records that an accuracy target was reached (see StopAtAccuracy).
func (s *Session) markGoal() {
	if s.cur != nil {
		s.cur.ReachedGoal = true
	}
}

// NotifyCheckpoint records a checkpoint save attempt on the current Result
// and broadcasts it to every callback's OnCheckpoint. Callbacks that write
// checkpoints call this so failures become first-class run results.
func (s *Session) NotifyCheckpoint(path string, err error) {
	if s.cur != nil {
		if err != nil {
			s.cur.CheckpointErrors = append(s.cur.CheckpointErrors, err)
		} else {
			s.cur.CheckpointsSaved++
		}
	}
	for _, cb := range s.callbacks {
		cb.OnCheckpoint(s, path, err)
	}
}

// LoadCheckpoint restores a saved weights-only checkpoint into every
// replica, so training starts from those weights with the replicas bitwise
// in sync. It restores weights only — optimizer slots, EMA, RNG streams and
// the loop position start fresh; use WithResume for bit-for-bit
// continuation of an interrupted run.
func (s *Session) LoadCheckpoint(path string) error {
	for r := 0; r < s.eng.World(); r++ {
		if err := checkpoint.LoadWeightsFile(path, s.eng.Replica(r).Model); err != nil {
			return fmt.Errorf("train: load checkpoint: %w", err)
		}
	}
	return nil
}

// SaveCheckpoint writes replica 0's model to path in the weights-only
// serving format (atomic, fsynced write).
func (s *Session) SaveCheckpoint(path string) error {
	if err := checkpoint.SaveWeightsFile(path, s.eng.Replica(0).Model); err != nil {
		return fmt.Errorf("train: save checkpoint: %w", err)
	}
	return nil
}

// Snapshot synchronously captures the full training state — everything a
// WithResume session needs for a bit-for-bit continuation — and writes it
// to path atomically. Call it between Runs or from a callback (the engine
// is quiescent at both points); periodic in-run snapshots are the
// WithSnapshotEvery option's job.
func (s *Session) Snapshot(path string) error {
	snap, err := s.captureSnapshot()
	if err != nil {
		return fmt.Errorf("train: snapshot: %w", err)
	}
	if err := checkpoint.WriteSnapshotFile(path, snap); err != nil {
		return fmt.Errorf("train: snapshot: %w", err)
	}
	return nil
}

// scheduleCurve samples the resolved LR schedule across the configured run
// — the session-level half of the resume fingerprint. The engine validates
// everything it owns, but the schedule is a function the engine cannot
// inspect; a dense bit-exact sample of its values catches a resume launched
// with different -lr-per-256 / warmup / decay / epochs options, any of
// which would silently fork the trajectory.
func (s *Session) scheduleCurve() []float64 {
	const samples = 64
	curve := make([]float64, samples+1)
	total := float64(s.cfg.epochs)
	for i := range curve {
		curve[i] = s.sched.LR(total * float64(i) / samples)
	}
	return curve
}

// captureSnapshot captures engine state plus the session's loop component.
func (s *Session) captureSnapshot() (*checkpoint.Snapshot, error) {
	snap, err := s.eng.CaptureState()
	if err != nil {
		return nil, err
	}
	lc := checkpoint.Component{}
	lc.PutF64("best", s.best)
	lc.PutI64("epochs", int64(s.cfg.epochs))
	lc.PutF64s("lr-curve", s.scheduleCurve())
	if err := snap.Add(loopComponent, lc); err != nil {
		return nil, err
	}
	return snap, nil
}

// restoreLoopComponent validates the session-level fingerprint and restores
// loop progress. The component is optional (engine-level snapshots lack it),
// but when present it must agree with this session's configuration.
func (s *Session) restoreLoopComponent(lc checkpoint.Component) error {
	best, err := lc.F64("best")
	if err != nil {
		return err
	}
	epochs, err := lc.I64("epochs")
	if err != nil {
		return err
	}
	if int(epochs) != s.cfg.epochs {
		return fmt.Errorf("snapshot trained toward %d epochs, session configured with %d — a resumed run must keep the original length (it shapes the LR schedule)", epochs, s.cfg.epochs)
	}
	curve, err := lc.F64s("lr-curve")
	if err != nil {
		return err
	}
	cur := s.scheduleCurve()
	if len(curve) != len(cur) {
		return fmt.Errorf("snapshot LR curve has %d samples, session's has %d", len(curve), len(cur))
	}
	for i := range curve {
		if curve[i] != cur[i] {
			return fmt.Errorf("LR schedule differs from the interrupted run's (at %.1f%% of training: snapshot %g, session %g) — resume with the original schedule options", 100*float64(i)/float64(len(curve)-1), curve[i], cur[i])
		}
	}
	s.best = best
	s.restoredBest = best
	return nil
}

// drainWriterEvents surfaces finished async snapshot writes as checkpoint
// results. Called on the loop goroutine (and after Flush at run end), so
// callbacks keep their synchronous-dispatch guarantee.
func (s *Session) drainWriterEvents() {
	if s.writer == nil {
		return
	}
	for _, ev := range s.writer.Drain() {
		if s.rec != nil {
			rec := telemetry.SnapshotRecord{Step: ev.Step, Path: ev.Path, Wall: ev.Elapsed}
			if ev.Err != nil {
				rec.Err = ev.Err.Error()
			}
			s.rec.SnapshotDone(rec)
		}
		s.NotifyCheckpoint(ev.Path, ev.Err)
	}
}

// Run trains to the configured length and returns the run's history. Each
// step fires, in order: every callback's OnStep; on the evaluation cadence
// (and always at the final step) the evaluation, the telemetry record and
// every OnEval; finished async snapshot writes; the periodic snapshot
// capture; and the Stop check. A resumed session's first Run continues the
// interrupted run's global step numbering and evaluation cadence. Run may be
// called again to continue training the same weights for another round of
// epochs.
func (s *Session) Run() (*Result, error) {
	s.stop = false
	res := &Result{PeakAccuracy: s.best}
	s.cur = res
	startStep := 0
	if s.resumePending {
		// Only the first Run after a restore starts mid-loop; later Runs
		// keep today's "another round of epochs" semantics.
		startStep = s.resumeStep
		s.resumePending = false
		res.Resumed = true
	}
	stepsPerEpoch := s.eng.StepsPerEpoch()
	totalSteps := s.cfg.epochs * stepsPerEpoch
	evalEvery := s.cfg.evalEvery
	if evalEvery <= 0 {
		evalEvery = stepsPerEpoch
	}
	if s.rec != nil {
		s.rec.BeginRun(telemetry.RunInfo{
			World:         s.eng.World(),
			GlobalBatch:   s.eng.GlobalBatch(),
			StepsPerEpoch: stepsPerEpoch,
			TotalSteps:    totalSteps,
		})
	}
	start := time.Now()
	for step := startStep + 1; step <= totalSteps; step++ {
		stepRes, err := s.eng.Step()
		if err != nil {
			return nil, fmt.Errorf("train: step %d: %w", step, err)
		}
		res.StepsRun++
		for _, cb := range s.callbacks {
			cb.OnStep(s, step, stepRes)
		}
		if step%evalEvery == 0 || step == totalSteps {
			evalStart := time.Now()
			acc, serial, err := s.cfg.strategy.Evaluate(s.eng, s.cfg.evalSamples)
			if err != nil {
				return nil, fmt.Errorf("train: eval at step %d: %w", step, err)
			}
			wall := time.Since(evalStart)
			pt := EvalPoint{
				Step:          step,
				Epoch:         float64(step) / float64(stepsPerEpoch),
				Accuracy:      acc,
				Elapsed:       time.Since(start),
				Wall:          wall,
				SerialSamples: serial,
			}
			res.History = append(res.History, pt)
			res.EvalSerialSamples += serial
			res.EvalWallTime += wall
			if acc > res.PeakAccuracy {
				res.PeakAccuracy = acc
				res.TimeToPeak = pt.Elapsed
			}
			if acc > s.best {
				s.best = acc
			}
			if s.rec != nil {
				s.rec.EvalDone(telemetry.EvalRecord{
					Step:          pt.Step,
					Epoch:         pt.Epoch,
					Accuracy:      pt.Accuracy,
					Wall:          pt.Wall,
					SerialSamples: pt.SerialSamples,
				})
			}
			for _, cb := range s.callbacks {
				cb.OnEval(s, pt)
			}
		}
		// The step's evaluation and best-accuracy bookkeeping are done, so
		// the engine state is complete and quiescent: snapshot here.
		s.drainWriterEvents()
		if s.writer != nil && step%s.cfg.snapshotEvery == 0 {
			// Capture is synchronous (a memory copy of the state); encoding
			// and the fsynced write happen on the writer goroutine while
			// training continues.
			if snap, err := s.captureSnapshot(); err != nil {
				s.NotifyCheckpoint(s.cfg.snapshotDir, err)
			} else {
				s.writer.Enqueue(int64(step), snap)
			}
		}
		if s.stop {
			res.Stopped = true
			break
		}
	}
	res.TotalTime = time.Since(start)
	if s.writer != nil {
		// The run's Result owns every snapshot outcome: wait for in-flight
		// writes and fold their events in before handing the Result out.
		s.writer.Flush()
		s.drainWriterEvents()
	}
	if s.rec != nil {
		sum := s.rec.Summary()
		res.Telemetry = &sum
	}
	for _, cb := range s.callbacks {
		cb.OnEnd(s, res)
	}
	s.cur = nil
	return res, nil
}
