// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload against the public APIs of the training (train, replica),
// serving (serve) and checkpoint packages, checks the program's outputs,
// and prints one JSON result object as the last line of standard output.
//
//	go run . --workload train-recipe --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the same workload with spans, the engine's telemetry recorder and a
// collective observer attached, then probes each layer on its own, and
// reports the per-layer metrics. Any failed correctness check makes the
// result's "correct" false and the exit code 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*runConfig, *report) error{
	"train-recipe":    runRecipe,
	"train-tinybatch": runTinyBatch,
	"serve-open":      runServeOpen,
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds int
	tr      *Tracer
	// dir is the invocation's private scratch directory (snapshots).
	dir string
}

// report accumulates a run's metrics and correctness outcome.
type report struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	failures  []string
	// digest fingerprints the run's per-step training losses (lossDigest);
	// same-seed runs must agree on it.
	digest uint64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records one failed operation or correctness check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// setupReps is how many times each workload builds its set-up, warm-up
// included, per run; setup_s is the median, so one slow repetition does not
// move it.
const setupReps = 5

// repeatSetup builds the workload's set-up setupReps times, releasing all
// but the last, and returns the last one with the median set-up time in
// seconds.
func repeatSetup[T any](build func() (T, error), release func(T)) (T, float64, error) {
	var got T
	durs := make([]time.Duration, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return got, 0, err
		}
		durs = append(durs, time.Since(t0))
		if i < setupReps-1 {
			release(v)
		}
		got = v
	}
	return got, durMedian(durs), nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// runtimeCounters samples the allocator and GC CPU counters.
type runtimeCounters struct {
	mallocs, bytes uint64
	gcCPU, allCPU  float64
}

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeCounters{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), allCPU: s[1].Value.Float64()}
}

// allocLayer records the allocation and GC deltas between two samples
// taken around n timed training steps.
func (r *report) allocLayer(a, b runtimeCounters, n int) {
	if n <= 0 {
		return
	}
	r.layer["replica.allocs_per_step"] = float64(b.mallocs-a.mallocs) / float64(n)
	r.layer["replica.alloc_mb_per_step"] = float64(b.bytes-a.bytes) / float64(n) / 1e6
	if d := b.allCPU - a.allCPU; d > 0 {
		r.layer["replica.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / d
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: dataset, pixels and arrival schedule derive from it")
	seconds := fs.Int("seconds", 30, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Fprintf(os.Stderr, "e2ebench: workload %s seed %d seconds %d trace %d nproc %d GOMAXPROCS %d %s\n",
		*workload, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	if err := os.MkdirAll(benchDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(benchDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := &runConfig{seed: *seed, seconds: *seconds, tr: newTracer(*trace == 1), dir: dir}
	rep := newReport()
	if err := runner(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", *workload, err)
		return 1
	}
	names, units := e2eMetrics, e2eUnits
	vals := rep.e2e
	if cfg.tr != nil {
		names, units, vals = layerMetrics(), layerUnits, rep.layer
		path := filepath.Join(benchDir, fmt.Sprintf("trace-%s-seed%d.json", *workload, *seed))
		if err := cfg.tr.WriteFile(path); err != nil {
			rep.fail("write trace: %v", err)
		} else {
			fmt.Fprintf(os.Stderr, "e2ebench: spans written to %s\n", path)
		}
		for _, st := range summarize(cfg.tr.Spans()) {
			fmt.Fprintf(os.Stderr, "  span %-34s n=%-6d total %10.2f ms  self %10.2f ms\n", st.Name, st.Count, st.TotalMS, st.SelfMS)
		}
	}
	out := resultOut{Metrics: map[string]metricOut{}}
	for _, name := range names {
		v := vals[name] // a layer the workload does not exercise reports 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// JSON has no infinities: a latency percentile that reached shed
			// requests fails the run instead.
			rep.fail("%s is %v", name, v)
			v = 0
		}
		out.Metrics[name] = metricOut{Value: v, Unit: units[name]}
		fmt.Printf("%-36s %14.6g %s\n", name, v, units[name])
	}
	out.Correct, out.Attempted, out.Failed = rep.failed == 0, rep.attempted, rep.failed
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "e2ebench: FAILED:", f)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// benchDir, under the working directory, holds the benchmark's scratch
// files and traces (and, via run.sh, its build).
const benchDir = ".bench_build"

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
