package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"effnetscale/internal/bf16"
	"effnetscale/internal/checkpoint"
	"effnetscale/internal/data"
	"effnetscale/internal/efficientnet"
	"effnetscale/internal/serve"
	"effnetscale/internal/tensor"
)

// serve-open: an in-process serve.Batcher with the effnetserve defaults
// (MaxBatch 32, MaxWait 2 ms, one worker) over a serve.Loader watching a
// snapshot directory seeded with a pico res-32 snapshot. One open-loop
// generator sends Poisson arrivals: first at serveNominalRPS while new
// snapshots land every serveReloadEvery (hot reloads under load), then
// through a search for the highest rate that meets the p99 limit.
const (
	serveResolution = 32
	serveMaxBatch   = 32
	// serveNominalRPS is the fixed rate latency is reported at: inside the
	// 200–1,000 req/s range where this server's p50 stays at 3–4 ms, about
	// a quarter of its batch-32 capacity.
	serveNominalRPS = 400.0
	// serveP99LimitMS is the latency limit of the rate search, on p99 from
	// the due time; a shed or failed request misses it.
	serveP99LimitMS = 100.0
	// serveMaxMissFrac bounds the shed-plus-failed share of a passing rate.
	serveMaxMissFrac = 0.01
	// serveNominalShare is the share of --seconds spent at the nominal rate;
	// the rest goes to the rate search.
	serveNominalShare = 0.6
	// serveReloadEvery is the cadence of new snapshots during the nominal
	// phase: the snapshot cadence of train-recipe, the repository's
	// snapshot producer, at its measured p50 step of 64 ms.
	serveReloadEvery = recipeSnapshotEvery * 64 * time.Millisecond
	servePoll        = 2 * time.Millisecond
	// serveSampleEvery picks which responses are re-run through batch-1
	// Model.Infer for the bit-equality check.
	serveSampleEvery = 50
	servePixelPool   = 256
	serveWarmup      = 2 * serveMaxBatch
)

// serveSearchSteps are the rate search's relative steps, one probe each.
var serveSearchSteps = []float64{0.1, 0.05, 0.05, 0.05}

// sample is one response kept for the batch-1 bit-equality check.
type sample struct {
	pixel  int
	tag    string
	logits []float32
}

// serveState is one set-up of the serving stack.
type serveState struct {
	dir     string
	loader  *serve.Loader
	batcher *serve.Batcher
	sink    *batchSink

	mu      sync.Mutex
	models  map[string]*efficientnet.Model // tag → the weights written
	renamed map[string]time.Time           // tag → when its file appeared
	swapped map[string]time.Time           // tag → loader's OnSwap
	next    int                            // next snapshot step
	capMS   []float64
	writeMS []float64
	bytes   int64
}

func (s *serveState) close() {
	s.batcher.Close()
	s.loader.Close()
}

// writeSnapshot writes model weights derived from seed as the next snapshot
// and registers its tag before the file becomes visible to the loader. It
// returns the tag.
func (s *serveState) writeSnapshot(tr *Tracer, mc efficientnet.Config, seed int64) (string, error) {
	m := efficientnet.New(rand.New(rand.NewSource(seed)), mc)
	s.mu.Lock()
	s.next++
	tag := fmt.Sprintf("step-%09d.ckpt", s.next)
	s.mu.Unlock()
	t0 := time.Now()
	snap := checkpoint.NewSnapshot()
	if err := snap.Capture(checkpoint.ModelState(m)); err != nil {
		return "", err
	}
	t1 := time.Now()
	// Written under a name the loader ignores, then renamed into place, so
	// the rename time is known exactly.
	tmp := filepath.Join(s.dir, "pending.snapshot")
	if err := checkpoint.WriteSnapshotFile(tmp, snap); err != nil {
		return "", err
	}
	t2 := time.Now()
	st, err := os.Stat(tmp)
	if err != nil {
		return "", err
	}
	phase := int(s.sink.phase.Load())
	tr.Record("checkpoint.capture", phase, t0, t1)
	tr.Record("checkpoint.write", phase, t1, t2)
	s.mu.Lock()
	s.models[tag] = m
	s.capMS = append(s.capMS, ms(t1.Sub(t0)))
	s.writeMS = append(s.writeMS, ms(t2.Sub(t1)))
	s.bytes = st.Size()
	s.renamed[tag] = time.Now()
	s.mu.Unlock()
	return tag, os.Rename(tmp, filepath.Join(s.dir, tag))
}

func (s *serveState) knownTag(tag string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.models[tag]
	return ok
}

// batchSink is the benchmark's serve.Sink: it keeps every batch record,
// labelled with the phase it completed in.
type batchSink struct {
	tr    *Tracer
	phase atomic.Int64 // current phase span ID
	mu    sync.Mutex
	recs  []batchRec
}

type batchRec struct {
	phase int
	serve.BatchRecord
}

// Record implements serve.Sink.
func (k *batchSink) Record(r serve.BatchRecord) {
	now := time.Now()
	p := int(k.phase.Load())
	k.tr.Record("serve.infer", p, now.Add(-r.Infer), now)
	k.mu.Lock()
	k.recs = append(k.recs, batchRec{phase: p, BatchRecord: r})
	k.mu.Unlock()
}

// Close implements serve.Sink.
func (k *batchSink) Close() error { return nil }

// phaseResult is the generator's accounting of one open-loop phase.
type phaseResult struct {
	name                   string
	span                   int // the phase's span ID (0 untraced)
	rate                   float64
	sent, ok, shed, failed int
	latMS                  []float64 // from the due time; +Inf when shed or failed
	lagMS                  []float64 // generator lateness
	backlogMid, backlogEnd int
	firstDone              map[string]time.Time // tag → first response it served
	samples                []sample
	failures               []string
}

func (p *phaseResult) missFrac() float64 {
	if p.sent == 0 {
		return 0
	}
	return float64(p.shed+p.failed) / float64(p.sent)
}

// growing reports a backlog that rose by more than two full batches over
// the phase's second half.
func (p *phaseResult) growing() bool { return p.backlogEnd > p.backlogMid+2*serveMaxBatch }

func (p *phaseResult) pass() bool {
	return percentile(p.latMS, 99) <= serveP99LimitMS && p.missFrac() <= serveMaxMissFrac && !p.growing()
}

func (p *phaseResult) String() string {
	return fmt.Sprintf("phase %-8s rate %7.1f/s sent %6d ok %6d shed %5d failed %3d p50 %7.2f ms p99 %8.2f ms lag_p99 %.3f ms backlog %d→%d",
		p.name, p.rate, p.sent, p.ok, p.shed, p.failed, percentile(p.latMS, 50), percentile(p.latMS, 99),
		percentile(p.lagMS, 99), p.backlogMid, p.backlogEnd)
}

// openLoop sends Poisson arrivals at rate for dur, each request on its own
// goroutine so a slow reply never delays the next send, and waits for every
// reply. Latency is timed from each request's due time.
func openLoop(st *serveState, tr *Tracer, name string, rate float64, dur time.Duration, rng *rand.Rand, pixels [][]float32, classes int) *phaseResult {
	var dues []time.Duration
	var pix []int
	for t := rng.ExpFloat64() / rate; t < dur.Seconds(); t += rng.ExpFloat64() / rate {
		dues = append(dues, time.Duration(t*1e9))
		pix = append(pix, rng.Intn(len(pixels)))
	}
	res := &phaseResult{name: name, rate: rate, sent: len(dues), firstDone: map[string]time.Time{}}
	span, endSpan := tr.Begin("serve.phase."+name, 0)
	defer endSpan()
	res.span = span
	st.sink.phase.Store(int64(span))

	type outcome struct {
		done time.Time
		pred serve.Prediction
		err  error
	}
	outs := make([]outcome, len(dues))
	sentAt := make([]time.Time, len(dues))
	var completed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, d := range dues {
		due := start.Add(d)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		sentAt[i] = time.Now()
		if i == len(dues)/2 {
			res.backlogMid = i - int(completed.Load())
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pred, err := st.batcher.Predict(pixels[pix[i]])
			outs[i] = outcome{done: time.Now(), pred: pred, err: err}
			completed.Add(1)
		}(i)
	}
	res.backlogEnd = len(dues) - int(completed.Load())
	wg.Wait()

	for i, o := range outs {
		due := start.Add(dues[i])
		res.lagMS = append(res.lagMS, ms(sentAt[i].Sub(due)))
		lat := math.Inf(1)
		switch {
		case errors.Is(o.err, serve.ErrOverloaded):
			res.shed++
		case o.err != nil:
			res.failed++
			res.failures = append(res.failures, fmt.Sprintf("request %d: %v", i, o.err))
		default:
			if msg := checkPrediction(st, o.pred, classes); msg != "" {
				res.failed++
				res.failures = append(res.failures, fmt.Sprintf("request %d: %s", i, msg))
				break
			}
			res.ok++
			lat = ms(o.done.Sub(due))
			if t, ok := res.firstDone[o.pred.Model]; !ok || o.done.Before(t) {
				res.firstDone[o.pred.Model] = o.done
			}
			if i%serveSampleEvery == 0 {
				res.samples = append(res.samples, sample{pixel: pix[i], tag: o.pred.Model, logits: o.pred.Logits})
			}
		}
		res.latMS = append(res.latMS, lat)
		if tr != nil {
			id := tr.Record("serve.request", span, due, o.done)
			tr.Record("serve.predict", id, sentAt[i], o.done)
		}
	}
	return res
}

// checkPrediction validates one response: a logit per class, the argmax as
// its class, and a model tag the benchmark wrote. It returns "" when valid.
func checkPrediction(st *serveState, p serve.Prediction, classes int) string {
	if len(p.Logits) != classes {
		return fmt.Sprintf("%d logits, want %d", len(p.Logits), classes)
	}
	best := 0
	for j, v := range p.Logits {
		if v > p.Logits[best] {
			best = j
		}
	}
	if best != p.Class {
		return fmt.Sprintf("class %d but argmax of logits is %d", p.Class, best)
	}
	if !st.knownTag(p.Model) {
		return fmt.Sprintf("model tag %q was never written", p.Model)
	}
	return ""
}

// burst sends n requests at once and waits for every reply.
func burst(b *serve.Batcher, pixels [][]float32, n int) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.Predict(pixels[i%len(pixels)])
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// measureCapacity sends back-to-back bursts of one full batch for dur and
// returns the requests answered per second.
func measureCapacity(b *serve.Batcher, pixels [][]float32, dur time.Duration) (float64, error) {
	start := time.Now()
	n := 0
	for time.Since(start) < dur {
		if err := burst(b, pixels, serveMaxBatch); err != nil {
			return 0, err
		}
		n += serveMaxBatch
	}
	return float64(n) / time.Since(start).Seconds(), nil
}

// servePixels renders the request images from the seeded dataset.
func servePixels(seed int64) [][]float32 {
	dc := data.MiniConfig(recipeClasses, servePixelPool, serveResolution)
	dc.Seed = seed
	ds := data.New(dc)
	batch := tensor.New(servePixelPool, 3, serveResolution, serveResolution)
	labels := make([]int, servePixelPool)
	data.NewShard(ds, 0, 0, 1).FillBatch(0, 0, batch, labels)
	n := 3 * serveResolution * serveResolution
	out := make([][]float32, servePixelPool)
	for i := range out {
		out[i] = batch.Data()[i*n : (i+1)*n]
	}
	return out
}

func runServeOpen(cfg *runConfig, rep *report) error {
	mc, err := probeModelConfig(recipeModel, recipeClasses, serveResolution)
	if err != nil {
		return err
	}
	pixels := servePixels(cfg.seed)
	n := 0
	st, setup, err := repeatSetup(func() (*serveState, error) {
		n++
		s := &serveState{
			dir:     filepath.Join(cfg.dir, fmt.Sprintf("snapshots-%d", n)),
			models:  map[string]*efficientnet.Model{},
			renamed: map[string]time.Time{},
			swapped: map[string]time.Time{},
			sink:    &batchSink{tr: cfg.tr},
		}
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return nil, err
		}
		if _, err := s.writeSnapshot(nil, mc, cfg.seed); err != nil {
			return nil, err
		}
		l, err := serve.NewLoader(serve.LoaderConfig{
			SnapshotDir: s.dir,
			Poll:        servePoll,
			OnSwap: func(tag string) {
				s.mu.Lock()
				s.swapped[tag] = time.Now()
				s.mu.Unlock()
			},
		})
		if err != nil {
			return nil, err
		}
		s.loader = l
		var sinks []serve.Sink
		if cfg.tr != nil {
			sinks = append(sinks, s.sink)
		}
		b, err := serve.NewBatcher(serve.Config{Provider: l, MaxBatch: serveMaxBatch, MaxWait: 2 * time.Millisecond, Workers: 1, Sinks: sinks})
		if err != nil {
			l.Close()
			return nil, err
		}
		s.batcher = b
		// Warm-up: bursts of concurrent requests fill full batches and the
		// kernels' scratch arenas before the first timed request.
		if err := burst(b, pixels, serveWarmup); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		return s, nil
	}, (*serveState).close)
	if err != nil {
		return err
	}
	defer st.close()
	rep.e2e["setup_s"] = setup
	classes := mc.NumClasses
	rng := rand.New(rand.NewSource(cfg.seed))
	budget := time.Duration(cfg.seconds) * time.Second

	// Nominal phase, with snapshots written at a fixed cadence.
	nominalDur := time.Duration(float64(budget) * serveNominalShare)
	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	var reloadTags []string // written by the writer goroutine until writerDone
	go func() {
		tick := time.NewTicker(serveReloadEvery)
		defer tick.Stop()
		for k := int64(1); ; k++ {
			select {
			case <-stop:
				writerDone <- nil
				return
			case <-tick.C:
				tag, err := st.writeSnapshot(cfg.tr, mc, cfg.seed+k)
				if err != nil {
					writerDone <- err
					return
				}
				reloadTags = append(reloadTags, tag)
			}
		}
	}()
	nominal := openLoop(st, cfg.tr, "nominal", serveNominalRPS, nominalDur, rng, pixels, classes)
	close(stop)
	if err := <-writerDone; err != nil {
		return fmt.Errorf("snapshot writer: %w", err)
	}
	fmt.Println(nominal)
	phases := []*phaseResult{nominal}

	// Rate search. Its time is split into equal windows. The first measures
	// capacity closed loop: requests answered per second of back-to-back
	// full batches. The others are the probes of an up-down staircase that
	// starts at that capacity: a passing probe raises the next rate by the
	// current step, a failing one lowers it, and the estimate is the
	// geometric mean of the rates tried, which no single probe near the knee
	// can move by more than its step.
	window := (budget - nominalDur) / time.Duration(len(serveSearchSteps)+1)
	capSpan, endCap := cfg.tr.Begin("serve.capacity", 0)
	st.sink.phase.Store(int64(capSpan))
	rate, err := measureCapacity(st.batcher, pixels, window)
	endCap()
	if err != nil {
		return fmt.Errorf("capacity: %w", err)
	}
	fmt.Printf("phase capacity rate %7.1f/s closed loop, batches of %d\n", rate, serveMaxBatch)
	logSum := 0.0
	for _, step := range serveSearchSteps {
		p := openLoop(st, cfg.tr, "search", rate, window, rng, pixels, classes)
		fmt.Println(p)
		phases = append(phases, p)
		logSum += math.Log(rate)
		if p.pass() {
			rate *= 1 + step
		} else {
			rate /= 1 + step
		}
	}
	maxRPS := math.Exp(logSum / float64(len(serveSearchSteps)))
	if rss, err := peakRSSMB(); err == nil {
		rep.e2e["peak_rss_mb"] = rss
	} else {
		rep.fail("peak RSS: %v", err)
	}

	// Hot reloads: each snapshot written under load, from its rename to the
	// loader's swap, after which every batch uses it.
	var reloads []float64
	served := 0
	st.mu.Lock()
	for _, tag := range reloadTags {
		at, ok := st.swapped[tag]
		if !ok {
			rep.fail("snapshot %s was written but never swapped in", tag)
			continue
		}
		reloads = append(reloads, ms(at.Sub(st.renamed[tag])))
		if _, ok := nominal.firstDone[tag]; ok {
			served++
		}
	}
	st.mu.Unlock()
	if served == 0 {
		rep.fail("no hot-reloaded snapshot served a request")
	}

	rep.e2e["img_per_s"] = maxRPS
	rep.e2e["latency_p50_ms"] = percentile(nominal.latMS, 50)
	rep.layer["serve.latency_p90_ms"] = percentile(nominal.latMS, 90)
	rep.layer["serve.latency_p99_ms"] = percentile(nominal.latMS, 99)
	rep.e2e["time_to_target_s"] = mean(reloads) / 1e3
	rep.layer["traced.img_per_s"] = rep.e2e["img_per_s"]
	rep.layer["traced.latency_p50_ms"] = rep.e2e["latency_p50_ms"]

	// Correctness: every failure counted, then a sample of batched logits
	// against batch-1 inference on the weights the benchmark wrote.
	var sent, shed int
	var samples []sample
	for _, p := range phases {
		sent += p.sent
		shed += p.shed
		for _, f := range p.failures {
			rep.fail("%s", f)
		}
		samples = append(samples, p.samples...)
	}
	rep.attempted = int64(sent)
	for _, s := range samples {
		m := st.models[s.tag]
		x := tensor.FromSlice(append([]float32(nil), pixels[s.pixel]...), 1, 3, serveResolution, serveResolution)
		want := m.Infer(bf16.Policy{}, x).Data()
		for j := range want {
			if math.Float32bits(want[j]) != math.Float32bits(s.logits[j]) {
				rep.fail("batched logits for pixel %d on %s differ from batch-1 Model.Infer at %d: %v vs %v", s.pixel, s.tag, j, s.logits[j], want[j])
				break
			}
		}
	}
	fmt.Printf("requests %d shed %d bit_checked %d reloads %d served %d max_rps %.1f\n", sent, shed, len(samples), len(reloads), served, maxRPS)

	if cfg.tr == nil {
		return nil
	}
	serveLayer(rep, st, nominal, float64(shed)/float64(sent), reloads)
	return probeLayers(cfg, rep, mc, serveMaxBatch, nil)
}

// serveLayer writes the serving metrics of the nominal phase.
func serveLayer(rep *report, st *serveState, nominal *phaseResult, shedFrac float64, reloads []float64) {
	st.sink.mu.Lock()
	recs := st.sink.recs
	st.sink.mu.Unlock()
	var waits, infers, sizes []float64
	for _, r := range recs {
		if r.phase != nominal.span {
			continue
		}
		infers = append(infers, ms(r.Infer))
		sizes = append(sizes, float64(r.Size))
		for _, l := range r.Latencies {
			waits = append(waits, ms(l-r.Infer))
		}
	}
	sort.Float64s(waits)
	rep.layer["serve.queue_wait_ms_p50"] = sortedPercentile(waits, 50)
	rep.layer["serve.queue_wait_ms_p99"] = sortedPercentile(waits, 99)
	rep.layer["serve.infer_ms_per_batch"] = mean(infers)
	rep.layer["serve.avg_batch"] = mean(sizes)
	rep.layer["serve.shed_frac"] = shedFrac
	rep.layer["serve.reload_ms"] = median(reloads)
	rep.layer["serve.gen_lag_ms_p99"] = percentile(nominal.lagMS, 99)
	rep.layer["checkpoint.capture_ms"] = mean(st.capMS)
	rep.layer["checkpoint.write_ms"] = mean(st.writeMS)
	rep.layer["checkpoint.snapshot_bytes"] = float64(st.bytes)
}
