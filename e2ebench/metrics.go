package main

import "sort"

// The end-to-end metrics, printed by every workload with --trace 0. Each
// name has one meaning per workload (see METRICS.md):
//
//   - img_per_s: training images per second of the timed run, evaluations
//     and snapshots included (train-*); the highest sustainable offered
//     request rate, one image per request (serve-open).
//   - latency_p50_ms: training-step wall time (train-*); request latency from
//     its due time at the nominal rate (serve-open). The tails (step p90,
//     serving p90 and p99) swing too far with the shared host's speed to
//     hold any bound and are per-layer metrics: train.step_ms_p90,
//     serve.latency_p90_ms, serve.latency_p99_ms.
//   - time_to_target_s: wall time to the workload's target — the first
//     evaluation at or above recipeTarget top-1 (train-recipe), the fixed
//     step count (train-tinybatch, where it is timed steps × global batch ÷
//     img_per_s and adds no signal of its own), a newly written snapshot's
//     rename to the loader swapping it in, mean over the hot reloads
//     (serve-open).
//   - setup_s: building the workload's engine, session or server plus its
//     warm-up (steps or request bursts) up to the first timed step or
//     request; median of setupReps set-ups.
//   - peak_rss_mb: the process's VmHWM when the timed phase ends.
var e2eMetrics = []string{"img_per_s", "latency_p50_ms", "time_to_target_s", "setup_s", "peak_rss_mb"}

var e2eUnits = map[string]string{
	"img_per_s":        "img/s",
	"latency_p50_ms":   "ms",
	"time_to_target_s": "s",
	"setup_s":          "s",
	"peak_rss_mb":      "MB",
}

// efficientnetStages names the model's probe stages: the stem, the seven
// MBConv stages of the scaled block table, and the head (with the loss).
var efficientnetStages = []string{"stem", "blocks.0", "blocks.1", "blocks.2", "blocks.3", "blocks.4", "blocks.5", "blocks.6", "head"}

// layerUnits lists every per-layer metric printed with --trace 1.
var layerUnits = func() map[string]string {
	u := map[string]string{
		"replica.step_ms":                   "ms",
		"replica.forward_ms":                "ms",
		"replica.backward_ms":               "ms",
		"replica.optimizer_ms":              "ms",
		"replica.reduce_tail_ms":            "ms",
		"replica.data_wait_ms":              "ms",
		"replica.unattributed_frac":         "ratio",
		"replica.overlap_eff":               "ratio",
		"replica.allocs_per_step":           "count",
		"replica.alloc_mb_per_step":         "MB",
		"replica.gc_cpu_frac":               "ratio",
		"replica.world1_step_ms":            "ms",
		"comm.allreduce.calls_per_step":     "count",
		"comm.allreduce_f64.calls_per_step": "count",
		"comm.bytes_per_step":               "bytes",
		"comm.busy_ms_per_step":             "ms",
		"data.starved_per_step":             "count",
		"data.batch_ms":                     "ms",
		"efficientnet.train_gmacs":          "GMAC/s",
		"efficientnet.infer_ms.b1":          "ms",
		"efficientnet.infer_ms.b32":         "ms",
		"tensor.conv1x1.gmacs":              "GMAC/s",
		"tensor.conv3x3.gmacs":              "GMAC/s",
		"tensor.depthwise.gmacs":            "GMAC/s",
		"tensor.conv_bwd.gmacs":             "GMAC/s",
		"tensor.depthwise_bwd.gmacs":        "GMAC/s",
		"tensor.matmul.gmacs":               "GMAC/s",
		"tensor.matmul_peak.gmacs":          "GMAC/s",
		"optim.lars.step_ms":                "ms",
		"train.eval_ms":                     "ms",
		"train.step_ms_p90":                 "ms",
		"train.steps_to_target":             "count",
		"checkpoint.capture_ms":             "ms",
		"checkpoint.write_ms":               "ms",
		"checkpoint.snapshot_bytes":         "bytes",
		"serve.latency_p90_ms":              "ms",
		"serve.latency_p99_ms":              "ms",
		"serve.queue_wait_ms_p50":           "ms",
		"serve.queue_wait_ms_p99":           "ms",
		"serve.infer_ms_per_batch":          "ms",
		"serve.avg_batch":                   "count",
		"serve.shed_frac":                   "ratio",
		"serve.reload_ms":                   "ms",
		"serve.gen_lag_ms_p99":              "ms",
		"traced.img_per_s":                  "img/s",
		"traced.latency_p50_ms":             "ms",
	}
	for _, s := range efficientnetStages {
		u["efficientnet."+s+".fwd_ms"] = "ms"
		u["efficientnet."+s+".bwd_ms"] = "ms"
	}
	return u
}()

// layerMetrics returns the per-layer metric names in a stable order.
func layerMetrics() []string {
	names := make([]string, 0, len(layerUnits))
	for n := range layerUnits {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
