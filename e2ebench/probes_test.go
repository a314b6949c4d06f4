package main

import (
	"math"
	"testing"

	"effnetscale/internal/efficientnet"
	"effnetscale/internal/serve"
)

// The per-stage MACs the efficientnet probe divides by must add up to the
// model library's analytic count, for every family member.
func TestStageMACsSumToComputeStats(t *testing.T) {
	for _, name := range efficientnet.FamilyNames() {
		cfg, ok := efficientnet.ConfigByName(name, 1000)
		if !ok {
			t.Fatalf("no config %q", name)
		}
		for _, res := range []int{cfg.Resolution, 16} {
			cfg.Resolution = res
			per := stageMACs(cfg)
			if len(per) != len(efficientnetStages) {
				t.Fatalf("%s: %d stages, want %d", name, len(per), len(efficientnetStages))
			}
			sum := 0.0
			for i, v := range per {
				if v <= 0 {
					t.Errorf("%s@%d: stage %s has %v MACs", name, res, efficientnetStages[i], v)
				}
				sum += v
			}
			if want := efficientnet.ComputeStats(cfg).FLOPsPerImg; sum != want {
				t.Errorf("%s@%d: stages sum to %.0f MACs, ComputeStats says %.0f", name, res, sum, want)
			}
		}
	}
}

func TestCompareLossesAndDigest(t *testing.T) {
	rep := newReport()
	compareLosses(rep, []float64{1, 2, 3}, []float64{1, 2, 3}, 3)
	if rep.failed != 0 {
		t.Fatalf("equal trajectories failed: %v", rep.failures)
	}
	compareLosses(rep, []float64{1, 2, 3}, []float64{1, math.Nextafter(2, 3), 3}, 3)
	compareLosses(rep, []float64{1}, []float64{1}, 2)
	if rep.failed != 2 {
		t.Fatalf("a one-ULP divergence and a short replay gave %d failures, want 2", rep.failed)
	}
	if lossDigest([]float64{1, 2}) == lossDigest([]float64{2, 1}) {
		t.Error("digest ignores step order")
	}
}

func TestCheckPrediction(t *testing.T) {
	st := &serveState{models: map[string]*efficientnet.Model{"step-000000001.ckpt": nil}}
	good := serve.Prediction{Class: 1, Logits: []float32{0, 2, 1}, Model: "step-000000001.ckpt"}
	if msg := checkPrediction(st, good, 3); msg != "" {
		t.Fatalf("valid prediction rejected: %s", msg)
	}
	for name, p := range map[string]serve.Prediction{
		"short logits": {Class: 1, Logits: []float32{0, 2}, Model: good.Model},
		"wrong class":  {Class: 2, Logits: good.Logits, Model: good.Model},
		"unknown tag":  {Class: 1, Logits: good.Logits, Model: "step-000000009.ckpt"},
	} {
		if checkPrediction(st, p, 3) == "" {
			t.Errorf("%s accepted", name)
		}
	}
}
