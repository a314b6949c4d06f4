package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"effnetscale/internal/autograd"
	"effnetscale/internal/bf16"
	"effnetscale/internal/checkpoint"
	"effnetscale/internal/comm"
	"effnetscale/internal/data"
	"effnetscale/internal/efficientnet"
	"effnetscale/internal/nn"
	"effnetscale/internal/optim"
	"effnetscale/internal/replica"
	"effnetscale/internal/telemetry"
	"effnetscale/internal/tensor"
)

// Layer probes run after a traced workload's timed phase: each calls one
// layer's public functions on its own, at the workload's model shapes, and
// records a span per call under the probe's parent span.

// timeReps runs f warm times untimed, then reps times under spans named
// name, and returns the median duration.
func timeReps(tr *Tracer, parent int, name string, warm, reps int, f func()) time.Duration {
	for i := 0; i < warm; i++ {
		f()
	}
	ds := make([]time.Duration, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		t1 := time.Now()
		tr.Record(name, parent, t0, t1)
		ds[i] = t1.Sub(t0)
	}
	return time.Duration(durMedian(ds) * 1e9)
}

// stageMACs returns the forward multiply-adds per image of each probe stage
// (efficientnetStages order), derived from cfg.ScaledBlocks() with the same
// per-layer accounting as efficientnet.ComputeStats: convolutions,
// depthwise convolutions, the squeeze-excitation dense layers and the
// classifier.
func stageMACs(cfg efficientnet.Config) []float64 {
	out := make([]float64, len(efficientnetStages))
	res := cfg.Resolution
	conv := func(cin, cout, k, stride int) float64 {
		pad := (k - 1) / 2
		res = (res+2*pad-k)/stride + 1
		return float64(cout) * float64(res*res) * float64(cin) * float64(k*k)
	}
	dense := func(in, o int) float64 { return float64(in) * float64(o) }

	out[0] = conv(3, cfg.StemFilters(), 3, 2)
	prev := cfg.StemFilters()
	for i, st := range cfg.ScaledBlocks() {
		for r := 0; r < st.Repeats; r++ {
			in, stride := prev, st.Stride
			if r > 0 {
				in, stride = st.OutFilters, 1
			}
			expanded := in * st.ExpandRatio
			if st.ExpandRatio != 1 {
				out[i+1] += conv(in, expanded, 1, 1)
			}
			// Depthwise: one k×k filter per channel.
			out[i+1] += conv(1, expanded, st.Kernel, stride)
			squeezed := max(int(float64(in)*st.SERatio), 1)
			out[i+1] += dense(expanded, squeezed) + dense(squeezed, expanded)
			out[i+1] += conv(expanded, st.OutFilters, 1, 1)
			prev = st.OutFilters
		}
	}
	last := len(out) - 1
	out[last] = conv(prev, cfg.HeadFilters(), 1, 1) + dense(cfg.HeadFilters(), cfg.NumClasses)
	return out
}

// probeModelConfig resolves the named model at the workload's resolution
// and class count, with the family's default regularizer rates.
func probeModelConfig(name string, classes, res int) (efficientnet.Config, error) {
	cfg, ok := efficientnet.ConfigByName(name, classes)
	if !ok {
		return cfg, fmt.Errorf("unknown model %q", name)
	}
	cfg.Resolution = res
	return cfg, nil
}

// probeEfficientNet times each stage's forward and its backward
// (autograd.Tape.Backward over a tape covering only that stage) at the given
// batch, on a model run alone outside the engine, plus tape-free inference at
// batch 1 and 32. It returns the model, whose parameters then hold
// gradients, for the optimizer probe.
func probeEfficientNet(tr *Tracer, cfg efficientnet.Config, batch int, seed int64, rep *report) *efficientnet.Model {
	pid, end := tr.Begin("probe.efficientnet", 0)
	defer end()
	rng := rand.New(rand.NewSource(seed))
	m := efficientnet.New(rng, cfg)
	ctx := &nn.Ctx{Training: true, Precision: bf16.DefaultPolicy, RNG: rand.New(rand.NewSource(seed)), Scratch: tensor.NewScratch()}
	res := cfg.Resolution
	images := tensor.Uniform(rng, 0, 1, batch, 3, res, res)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = i % cfg.NumClasses
	}

	// The blocks of stage i are the next ScaledBlocks()[i].Repeats entries
	// of Model.Blocks.
	var stageBlocks [][]*efficientnet.MBConv
	next := 0
	for _, st := range cfg.ScaledBlocks() {
		stageBlocks = append(stageBlocks, m.Blocks[next:next+st.Repeats])
		next += st.Repeats
	}
	last := len(efficientnetStages) - 1
	stage := func(s int, x *autograd.Value) *autograd.Value {
		switch s {
		case 0:
			return autograd.Swish(m.StemBN.Forward(ctx, m.StemConv.Forward(ctx, x)))
		case last:
			h := autograd.Swish(m.HeadBN.Forward(ctx, m.HeadConv.Forward(ctx, x)))
			h = m.Dropout.Forward(ctx, autograd.GlobalAvgPool(h))
			return autograd.SoftmaxCrossEntropy(m.FC.Forward(ctx, h), labels, 0.1)
		default:
			for _, b := range stageBlocks[s-1] {
				x = b.Forward(ctx, x)
			}
			return x
		}
	}

	const warm, reps = 1, 5
	in := images
	var fwdTotal, bwdTotal time.Duration
	for s, name := range efficientnetStages {
		var out *tensor.Tensor
		var fwd, bwd []time.Duration
		for i := 0; i < warm+reps; i++ {
			for _, p := range m.Params() {
				p.Value.ZeroGrad()
			}
			// The stem's input is the image batch, which needs no gradient;
			// every later stage back-propagates into its input as it does
			// inside the full model.
			x := autograd.Leaf(in, s != 0)
			t0 := time.Now()
			y := stage(s, x)
			t1 := time.Now()
			loss := y
			if s != last {
				loss = autograd.Sum(y)
			}
			t2 := time.Now()
			autograd.NewTape().Backward(loss)
			t3 := time.Now()
			out = y.T
			if i >= warm {
				tr.Record("efficientnet."+name+".fwd", pid, t0, t1)
				tr.Record("efficientnet."+name+".bwd", pid, t2, t3)
				fwd = append(fwd, t1.Sub(t0))
				bwd = append(bwd, t3.Sub(t2))
			}
		}
		f, b := time.Duration(durMedian(fwd)*1e9), time.Duration(durMedian(bwd)*1e9)
		rep.layer["efficientnet."+name+".fwd_ms"] = ms(f)
		rep.layer["efficientnet."+name+".bwd_ms"] = ms(b)
		fwdTotal += f
		bwdTotal += b
		in = out
	}

	perStage := stageMACs(cfg)
	var sum float64
	for _, v := range perStage {
		sum += v
	}
	if want := efficientnet.ComputeStats(cfg).FLOPsPerImg; sum != want {
		rep.fail("per-stage MACs sum to %.0f, ComputeStats says %.0f", sum, want)
	}
	// Training work is forward plus a backward of twice the forward MACs
	// (efficientnet.Stats.TrainFLOPsPerImg).
	rep.layer["efficientnet.train_gmacs"] = 3 * sum * float64(batch) / (fwdTotal + bwdTotal).Seconds() / 1e9

	for _, n := range []int{1, 32} {
		x := tensor.Uniform(rng, 0, 1, n, 3, res, res)
		d := timeReps(tr, pid, fmt.Sprintf("efficientnet.infer.b%d", n), 1, 9, func() { m.Infer(bf16.Policy{}, x) })
		rep.layer[fmt.Sprintf("efficientnet.infer_ms.b%d", n)] = ms(d)
	}
	return m
}

// kernelCase is one kernel call at a layer shape of the model.
type kernelCase struct {
	x, w *tensor.Tensor
	spec tensor.ConvSpec
	macs float64 // forward multiply-adds
}

// probeTensor times the tensor kernels at the model's own layer shapes for
// the given batch and reports achieved GMAC/s per kernel kind (summed MACs
// over summed median times), plus a 256×256×256 MatMul as the reference.
func probeTensor(tr *Tracer, m *efficientnet.Model, batch int, seed int64, rep *report) {
	pid, end := tr.Begin("probe.tensor", 0)
	defer end()
	rng := rand.New(rand.NewSource(seed))
	randT := func(shape ...int) *tensor.Tensor { return tensor.Uniform(rng, -1, 1, shape...) }
	res := m.Config.Resolution
	var conv3, conv1, dw, mm []kernelCase
	convCase := func(l *nn.Conv2D, cin int) kernelCase {
		x := randT(batch, cin, res, res)
		w := l.W.Data()
		o := l.Spec.OutShape(x, w)
		res = o[2]
		return kernelCase{x: x, w: w, spec: l.Spec, macs: float64(batch*o[1]*o[2]*o[3]) * float64(cin*w.Dim(2)*w.Dim(3))}
	}
	denseCase := func(l *nn.Dense) kernelCase {
		w := l.W.Data()
		return kernelCase{x: randT(batch, w.Dim(0)), w: w, macs: float64(batch * w.Dim(0) * w.Dim(1))}
	}
	conv3 = append(conv3, convCase(m.StemConv, 3))
	for _, b := range m.Blocks {
		if b.Expand != nil {
			conv1 = append(conv1, convCase(b.Expand, b.In))
		}
		x := randT(batch, b.ExpandedCh, res, res)
		w := b.Depthwise.W.Data()
		o := b.Depthwise.Spec.OutShape(x, w)
		res = o[2]
		dw = append(dw, kernelCase{x: x, w: w, spec: b.Depthwise.Spec, macs: float64(batch*o[1]*o[2]*o[3]) * float64(w.Dim(2)*w.Dim(3))})
		mm = append(mm, denseCase(b.SE.Reduce), denseCase(b.SE.Expand))
		conv1 = append(conv1, convCase(b.Project, b.ExpandedCh))
	}
	conv1 = append(conv1, convCase(m.HeadConv, m.HeadConv.W.Data().Dim(1)))
	mm = append(mm, denseCase(m.FC))

	sc := tensor.NewScratch()
	// rate times every case of a kind and returns summed MACs (scaled by
	// macsScale) over summed median times, in GMAC/s.
	rate := func(name string, cases []kernelCase, macsScale float64, call func(kernelCase)) float64 {
		var macs float64
		var total time.Duration
		for _, c := range cases {
			c := c
			total += timeReps(tr, pid, "tensor."+name, 1, 5, func() { call(c) })
			macs += c.macs * macsScale
		}
		return macs / total.Seconds() / 1e9
	}
	convFwd := func(c kernelCase) { tensor.Conv2DScratch(c.x, c.w, c.spec, sc) }
	// A backward computes the input and the weight gradient: twice the
	// forward's multiply-adds.
	convBwd := func(c kernelCase) {
		tensor.Conv2DBackwardScratch(c.x, c.w, tensor.Full(1, c.spec.OutShape(c.x, c.w)...), c.spec, sc)
	}
	rep.layer["tensor.conv3x3.gmacs"] = rate("conv3x3", conv3, 1, convFwd)
	rep.layer["tensor.conv1x1.gmacs"] = rate("conv1x1", conv1, 1, convFwd)
	rep.layer["tensor.conv_bwd.gmacs"] = rate("conv_bwd", append(append([]kernelCase(nil), conv3...), conv1...), 2, convBwd)
	rep.layer["tensor.depthwise.gmacs"] = rate("depthwise", dw, 1, func(c kernelCase) { tensor.DepthwiseConv2D(c.x, c.w, c.spec) })
	rep.layer["tensor.depthwise_bwd.gmacs"] = rate("depthwise_bwd", dw, 2, func(c kernelCase) {
		tensor.DepthwiseConv2DBackward(c.x, c.w, tensor.Full(1, c.spec.OutShape(c.x, c.w)...), c.spec)
	})
	rep.layer["tensor.matmul.gmacs"] = rate("matmul", mm, 1, func(c kernelCase) { tensor.MatMul(c.x, c.w) })
	a, b := randT(256, 256), randT(256, 256)
	rep.layer["tensor.matmul_peak.gmacs"] = rate("matmul_peak", []kernelCase{{x: a, w: b, macs: 256 * 256 * 256}}, 1,
		func(c kernelCase) { tensor.MatMul(c.x, c.w) })
}

// probeLARS times optim.LARS.Step over the model's parameters, whose
// gradients the efficientnet probe left populated.
func probeLARS(tr *Tracer, m *efficientnet.Model, rep *report) {
	pid, end := tr.Begin("probe.optim", 0)
	defer end()
	opt := optim.NewLARS(1e-5)
	d := timeReps(tr, pid, "optim.lars.step", 2, 15, func() { opt.Step(m.Params(), 0.01) })
	rep.layer["optim.lars.step_ms"] = ms(d)
}

// probeData times rendering one recipe-shaped batch (Shard.FillBatch) plus
// data.Augment — the input pipeline's per-batch work.
func probeData(tr *Tracer, seed int64, rep *report) {
	pid, end := tr.Begin("probe.data", 0)
	defer end()
	ds := data.New(recipeData(seed))
	shard := data.NewShard(ds, 0, 0, recipeWorld)
	res := ds.Config().Resolution
	batch := tensor.New(recipePerReplica, 3, res, res)
	labels := make([]int, recipePerReplica)
	rng := rand.New(rand.NewSource(seed))
	step := 0
	d := timeReps(tr, pid, "data.batch", 2, 20, func() {
		shard.FillBatch(0, step%shard.Len(), batch, labels)
		data.Augment(batch, rng)
		step++
	})
	rep.layer["data.batch_ms"] = ms(d)
}

// probeCheckpoint times Engine.CaptureState and, when writeDir is not
// empty, a synchronous snapshot write of the captured state.
func probeCheckpoint(tr *Tracer, eng *replica.Engine, writeDir string, rep *report) error {
	pid, end := tr.Begin("probe.checkpoint", 0)
	defer end()
	var snap *checkpoint.Snapshot
	var capErr error
	d := timeReps(tr, pid, "checkpoint.capture", 1, 5, func() {
		s, err := eng.CaptureState()
		if err != nil {
			capErr = err
		}
		snap = s
	})
	if capErr != nil {
		return fmt.Errorf("capture state: %w", capErr)
	}
	rep.layer["checkpoint.capture_ms"] = ms(d)
	if writeDir == "" {
		return nil
	}
	path := filepath.Join(writeDir, "probe.ckpt")
	var werr error
	d = timeReps(tr, pid, "checkpoint.write", 0, 3, func() {
		if err := checkpoint.WriteSnapshotFile(path, snap); err != nil {
			werr = err
		}
	})
	if werr != nil {
		return fmt.Errorf("write snapshot: %w", werr)
	}
	rep.layer["checkpoint.write_ms"] = ms(d)
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	rep.layer["checkpoint.snapshot_bytes"] = float64(st.Size())
	return os.Remove(path)
}

// probeWorld1 times steps of a single-replica engine with the workload's
// per-replica batch — the single-worker baseline for the step time.
func probeWorld1(tr *Tracer, cfg replica.Config, rep *report) error {
	pid, end := tr.Begin("probe.world1", 0)
	defer end()
	cfg.World, cfg.BNGroupSize = 1, 1
	eng, err := replica.New(cfg)
	if err != nil {
		return err
	}
	defer eng.Close()
	var stepErr error
	d := timeReps(tr, pid, "replica.world1.step", 3, 15, func() {
		if _, err := eng.Step(); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		return stepErr
	}
	rep.layer["replica.world1_step_ms"] = ms(d)
	return nil
}

// commObserver counts the collective calls of an instrumented provider.
type commObserver struct {
	allreduce, allreduceF64, bytes, busyNS atomic.Int64
}

// Collective implements comm.Observer.
func (o *commObserver) Collective(ev comm.Event) {
	switch ev.Op {
	case comm.OpAllReduce:
		o.allreduce.Add(1)
	case comm.OpAllReduceF64:
		o.allreduceF64.Add(1)
	}
	o.bytes.Add(int64(ev.Bytes))
	o.busyNS.Add(int64(ev.Elapsed))
}

// report writes the per-rank, per-step collective metrics.
func (o *commObserver) report(rep *report, steps, world int) {
	n := float64(steps * world)
	rep.layer["comm.allreduce.calls_per_step"] = float64(o.allreduce.Load()) / n
	rep.layer["comm.allreduce_f64.calls_per_step"] = float64(o.allreduceF64.Load()) / n
	rep.layer["comm.bytes_per_step"] = float64(o.bytes.Load()) / n
	rep.layer["comm.busy_ms_per_step"] = float64(o.busyNS.Load()) / 1e6 / n
}

// replicaLayer writes the engine phase metrics from a telemetry summary.
// replica.unattributed_frac is the share of the traced step wall time that
// forward + backward + optimizer + reduce_tail + data_wait do not cover.
func replicaLayer(rep *report, sum telemetry.Summary) {
	if sum.Steps == 0 {
		return
	}
	per := func(p telemetry.Phase) float64 { return ms(sum.Phases[p]) / float64(sum.Steps) }
	step := ms(sum.Wall) / float64(sum.Steps)
	rep.layer["replica.step_ms"] = step
	rep.layer["replica.forward_ms"] = per(telemetry.PhaseForward)
	rep.layer["replica.backward_ms"] = per(telemetry.PhaseBackward)
	rep.layer["replica.optimizer_ms"] = per(telemetry.PhaseOptimizer)
	rep.layer["replica.reduce_tail_ms"] = per(telemetry.PhaseReduceTail)
	rep.layer["replica.data_wait_ms"] = per(telemetry.PhaseDataWait)
	covered := per(telemetry.PhaseForward) + per(telemetry.PhaseBackward) + per(telemetry.PhaseOptimizer) +
		per(telemetry.PhaseReduceTail) + per(telemetry.PhaseDataWait)
	rep.layer["replica.unattributed_frac"] = 1 - covered/step
	rep.layer["replica.overlap_eff"] = sum.OverlapEfficiency()
	rep.layer["data.starved_per_step"] = float64(sum.Starved) / float64(sum.Steps)
}

// reset zeroes the counters (set-up traffic is not part of the timed run).
func (o *commObserver) reset() {
	o.allreduce.Store(0)
	o.allreduceF64.Store(0)
	o.bytes.Store(0)
	o.busyNS.Store(0)
}
