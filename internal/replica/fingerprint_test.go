package replica

import (
	"reflect"
	"testing"
)

// fingerprintClass records which fingerprint(s) a Config field feeds. The
// split is the elastic-resume contract: trajectory fields pin what is being
// trained (a mismatch is never resumable), topology fields pin how the work
// is partitioned (elastic resharding may rewrite them), and neutral fields
// change neither the trajectory nor the partitioning.
type fingerprintClass int

const (
	classTrajectory fingerprintClass = iota
	classTopology
	// classBoth marks the batch-geometry fields: they appear in the topology
	// fingerprint as themselves and in the trajectory fingerprint only via
	// their product, the global batch — which is exactly why a reshard that
	// preserves the global batch preserves the trajectory.
	classBoth
	classNeutral
)

// fingerprintAllowlist is the reviewed classification of every Config field.
// TestFingerprintCoversConfig fails when a field is added to Config without
// a decision here, or when an entry goes stale — the drift guard that keeps
// new knobs from silently escaping both fingerprints.
var fingerprintAllowlist = map[string]fingerprintClass{
	"World":           classBoth,
	"PerReplicaBatch": classBoth,
	"GradAccumSteps":  classBoth,

	"Model":               classTrajectory,
	"Dataset":             classTrajectory,
	"OptimizerName":       classTrajectory,
	"WeightDecay":         classTrajectory,
	"Precision":           classTrajectory,
	"LabelSmoothing":      classTrajectory,
	"Seed":                classTrajectory,
	"DropoutOverride":     classTrajectory,
	"DropConnectOverride": classTrajectory,
	"NoAugment":           classTrajectory,
	"BNMomentum":          classTrajectory,
	"EMADecay":            classTrajectory,

	"BNGroupSize":     classTopology,
	"Slice":           classTopology,
	"Mesh":            classTopology,
	"Collective":      classTopology,
	"GradBucketBytes": classTopology,

	// Schedule is a function and cannot be fingerprinted; the train session
	// covers it with the lr-curve sample. The rest are observation- or
	// performance-only and provably trajectory-neutral (see the prefetch,
	// overlap and telemetry equivalence tests).
	"Schedule":          classNeutral,
	"NoBackwardOverlap": classNeutral,
	"PrefetchDepth":     classNeutral,
	"Telemetry":         classNeutral,
}

// TestFingerprintCoversConfig reflects over Config and demands that every
// field has a reviewed classification, and every classification a field.
func TestFingerprintCoversConfig(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	seen := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		seen[name] = true
		if _, ok := fingerprintAllowlist[name]; !ok {
			t.Errorf("Config.%s has no fingerprint classification — decide whether it shapes the trajectory, the topology, both, or neither, and add it to fingerprintAllowlist", name)
		}
	}
	for name := range fingerprintAllowlist {
		if !seen[name] {
			t.Errorf("fingerprintAllowlist entry %q names a field Config no longer has", name)
		}
	}
}

// TestFingerprintClassesObservable spot-checks that the classification is
// real: mutating a field moves exactly the fingerprints its class claims.
func TestFingerprintClassesObservable(t *testing.T) {
	base, err := New(miniEngineConfig(4, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()

	for _, tc := range []struct {
		name                string
		mutate              func(*Config)
		trajMoves, topMoves bool
	}{
		{"seed", func(c *Config) { c.Seed = 99 }, true, false},
		{"grad-buckets", func(c *Config) { c.GradBucketBytes = 4096 }, false, true},
		{"bn-group", func(c *Config) { c.BNGroupSize = 4 }, false, true},
		{"prefetch", func(c *Config) { c.PrefetchDepth = PrefetchOff }, false, false},
		// The world-independence claim behind elastic resharding: halving the
		// world while doubling the per-replica batch keeps the trajectory
		// fingerprint (same global batch) and moves only the topology.
		{"refactorized-batch", func(c *Config) {
			c.World, c.PerReplicaBatch, c.BNGroupSize = 2, 4, 1
		}, false, true},
		// An uncompensated world change moves both (the global batch went
		// with it).
		{"world", func(c *Config) { c.World = 2; c.BNGroupSize = 1 }, true, true},
	} {
		cfg := miniEngineConfig(4, 2, 2)
		tc.mutate(&cfg)
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		trajMoved := e.TrajectoryFingerprint() != base.TrajectoryFingerprint()
		topMoved := e.TopologyFingerprint() != base.TopologyFingerprint()
		e.Close()
		if trajMoved != tc.trajMoves {
			t.Errorf("%s: trajectory fingerprint moved=%t, want %t", tc.name, trajMoved, tc.trajMoves)
		}
		if topMoved != tc.topMoves {
			t.Errorf("%s: topology fingerprint moved=%t, want %t", tc.name, topMoved, tc.topMoves)
		}
	}
}
