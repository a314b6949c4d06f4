package main

import (
	"encoding/json"
	"os"
	"testing"
)

// smoke runs a workload traced (which computes the end-to-end metrics too)
// and checks every check passed and every metric was measured.
func smoke(t *testing.T, workload string, seconds int, nonZero ...string) *report {
	t.Helper()
	cfg := &runConfig{seed: 3, seconds: seconds, tr: newTracer(true), dir: t.TempDir()}
	rep := newReport()
	if err := workloads[workload](cfg, rep); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("attempted %d failed %d: %v", rep.attempted, rep.failed, rep.failures)
	}
	for _, m := range e2eMetrics {
		if v := rep.e2e[m]; !(v > 0) {
			t.Errorf("%s = %v, want > 0", m, v)
		}
	}
	for name := range rep.layer {
		if _, ok := layerUnits[name]; !ok {
			t.Errorf("per-layer metric %s is not in the metric table", name)
		}
	}
	for _, m := range nonZero {
		if v := rep.layer[m]; !(v > 0) {
			t.Errorf("%s = %v, want > 0", m, v)
		}
	}
	if len(cfg.tr.Spans()) == 0 {
		t.Error("no spans recorded")
	}
	return rep
}

// layerProbes are the per-layer metrics every workload's probes measure.
var layerProbes = []string{
	"efficientnet.stem.fwd_ms", "efficientnet.head.bwd_ms", "efficientnet.train_gmacs",
	"efficientnet.infer_ms.b1", "efficientnet.infer_ms.b32", "tensor.conv1x1.gmacs",
	"tensor.depthwise_bwd.gmacs", "tensor.matmul_peak.gmacs", "optim.lars.step_ms", "data.batch_ms",
	"checkpoint.capture_ms", "checkpoint.write_ms", "checkpoint.snapshot_bytes",
	"traced.img_per_s", "traced.latency_p50_ms",
}

// trainLayers are the per-layer metrics both training workloads measure.
var trainLayers = append([]string{
	"replica.step_ms", "replica.forward_ms", "replica.backward_ms", "replica.optimizer_ms",
	"replica.allocs_per_step", "replica.world1_step_ms", "comm.allreduce.calls_per_step",
	"comm.allreduce_f64.calls_per_step", "comm.bytes_per_step", "train.eval_ms", "train.steps_to_target",
	"train.step_ms_p90",
}, layerProbes...)

func TestSmokeTrainRecipe(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full eight-epoch recipe")
	}
	smoke(t, "train-recipe", 1, trainLayers...)
}

func TestSmokeTinyBatch(t *testing.T) {
	rep := smoke(t, "train-tinybatch", 1, trainLayers...)
	// Two same-seed runs train the same trajectory.
	again := newReport()
	cfg := &runConfig{seed: 3, seconds: 1, dir: t.TempDir()}
	if err := runTinyBatch(cfg, again); err != nil {
		t.Fatal(err)
	}
	if again.digest != rep.digest {
		t.Errorf("same-seed loss digests differ: %016x vs %016x", again.digest, rep.digest)
	}
}

func TestSmokeServeOpen(t *testing.T) {
	// Five seconds give the nominal phase one hot reload.
	rep := smoke(t, "serve-open", 5, append([]string{
		"serve.latency_p90_ms", "serve.latency_p99_ms", "serve.queue_wait_ms_p50", "serve.infer_ms_per_batch",
		"serve.avg_batch", "serve.reload_ms", "serve.gen_lag_ms_p99",
	}, layerProbes...)...)
	if v := rep.layer["comm.bytes_per_step"]; v != 0 {
		t.Errorf("serving ran collectives: %v bytes per step", v)
	}
}

// BENCHMARK.json at the repository root must list exactly the metrics the
// benchmark prints, with the same units.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want map[string]string) {
		seen := map[string]bool{}
		for _, m := range got {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s (%s): benchmark prints unit %q", kind, m.Name, m.Unit, u)
			}
			seen[m.Name] = true
		}
		for name := range want {
			if !seen[name] {
				t.Errorf("%s metric %s missing from BENCHMARK.json", kind, name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eUnits)
	check("per_layer", spec.PerLayer, layerUnits)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}
