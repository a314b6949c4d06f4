package checkpoint

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"effnetscale/internal/autograd"
	"effnetscale/internal/efficientnet"
	"effnetscale/internal/nn"
	"effnetscale/internal/tensor"
)

func newPico(seed int64) *efficientnet.Model {
	cfg, _ := efficientnet.ConfigByName("pico", 10)
	return efficientnet.New(rand.New(rand.NewSource(seed)), cfg)
}

func TestSaveLoadWeightsRoundTrip(t *testing.T) {
	src := newPico(1)
	// Make BN running stats nontrivial.
	src.BatchNorms()[0].RunningMean.Data()[0] = 3.25

	var buf bytes.Buffer
	if err := SaveWeights(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := newPico(99) // different init
	if err := LoadWeights(&buf, dst); err != nil {
		t.Fatal(err)
	}
	sp, dp := src.Params(), dst.Params()
	for i := range sp {
		for j := range sp[i].Data().Data() {
			if sp[i].Data().Data()[j] != dp[i].Data().Data()[j] {
				t.Fatalf("param %s differs after round trip", sp[i].Name)
			}
		}
	}
	if dst.BatchNorms()[0].RunningMean.Data()[0] != 3.25 {
		t.Fatal("BN running stats not restored")
	}
	// Same outputs on the same input.
	x := autograd.Constant(tensor.Randn(rand.New(rand.NewSource(5)), 1, 1, 3, 32, 32))
	ctx := nn.EvalCtx()
	ys, yd := src.Forward(ctx, x), dst.Forward(ctx, x)
	for i := range ys.T.Data() {
		if ys.T.Data()[i] != yd.T.Data()[i] {
			t.Fatal("restored model produces different outputs")
		}
	}
}

func TestSaveWeightsDeterministic(t *testing.T) {
	// The weights encoding must be byte-for-byte reproducible so two runs'
	// checkpoints can be compared with cmp (CI's hybrid-smoke job does
	// exactly that to prove a D×1 mesh matches pure data parallelism).
	// The original map-backed format failed this: gob randomizes map order.
	var a, b bytes.Buffer
	if err := SaveWeights(&a, newPico(1)); err != nil {
		t.Fatal(err)
	}
	if err := SaveWeights(&b, newPico(1)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of identical weights produced different bytes")
	}
}

func TestLoadWeightsRejectsFormat1(t *testing.T) {
	// Format 1 kept parameters in a gob map. It is no longer readable: the
	// load must fail naming the format and leave the target untouched.
	src := newPico(1)
	format1 := struct {
		Format     int
		ModelName  string
		NumClasses int
		Resolution int
		Params     map[string]tensorBlob
	}{1, src.Config.Name, src.Config.NumClasses, src.Config.Resolution, map[string]tensorBlob{}}
	for _, p := range src.Params() {
		format1.Params[p.Name] = tensorBlob{Shape: p.Data().Shape(), Data: p.Data().Data()}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(format1); err != nil {
		t.Fatal(err)
	}
	dst := newPico(99)
	var before, after bytes.Buffer
	if err := SaveWeights(&before, dst); err != nil {
		t.Fatal(err)
	}
	if err := LoadWeights(&buf, dst); err == nil || !strings.Contains(err.Error(), "format 1") {
		t.Fatalf("format-1 load = %v, want an error naming format 1", err)
	}
	if err := SaveWeights(&after, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("rejected format-1 load changed the target model")
	}
}

func TestLoadWeightsRejectsWrongModel(t *testing.T) {
	src := newPico(1)
	var buf bytes.Buffer
	if err := SaveWeights(&buf, src); err != nil {
		t.Fatal(err)
	}
	cfg, _ := efficientnet.ConfigByName("nano", 10)
	other := efficientnet.New(rand.New(rand.NewSource(2)), cfg)
	if err := LoadWeights(&buf, other); err == nil {
		t.Fatal("loading a pico checkpoint into nano must fail")
	}
}

func TestLoadWeightsRejectsGarbage(t *testing.T) {
	m := newPico(1)
	if err := LoadWeights(bytes.NewReader([]byte("not a checkpoint")), m); err == nil {
		t.Fatal("garbage input must fail to decode")
	}
}

func TestSaveLoadWeightsFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	src := newPico(3)
	if err := SaveWeightsFile(path, src); err != nil {
		t.Fatal(err)
	}
	dst := newPico(4)
	if err := LoadWeightsFile(path, dst); err != nil {
		t.Fatal(err)
	}
	if src.Params()[0].Data().Data()[0] != dst.Params()[0].Data().Data()[0] {
		t.Fatal("file round trip lost data")
	}
	if err := LoadWeightsFile(filepath.Join(dir, "missing.ckpt"), dst); err == nil {
		t.Fatal("missing file must error")
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries after atomic save, want 1", len(entries))
	}
}

// --- Snapshot component/codec error paths -------------------------------------

func modelSnapshot(t *testing.T, m *efficientnet.Model) *Snapshot {
	t.Helper()
	snap := NewSnapshot()
	if err := snap.Capture(ModelState(m)); err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestModelStateRoundTrip(t *testing.T) {
	src := newPico(1)
	src.BatchNorms()[1].RunningVar.Data()[0] = 7.5
	snap := modelSnapshot(t, src)
	dst := newPico(42)
	if err := snap.Restore(ModelState(dst)); err != nil {
		t.Fatal(err)
	}
	for i, p := range src.Params() {
		dp := dst.Params()[i]
		for j := range p.Data().Data() {
			if p.Data().Data()[j] != dp.Data().Data()[j] {
				t.Fatalf("param %s differs after snapshot round trip", p.Name)
			}
		}
	}
	if dst.BatchNorms()[1].RunningVar.Data()[0] != 7.5 {
		t.Fatal("BN running stats not restored through codec")
	}
}

func TestModelStateRejectsWrongFamily(t *testing.T) {
	snap := modelSnapshot(t, newPico(1))
	cfg, _ := efficientnet.ConfigByName("nano", 10)
	nano := efficientnet.New(rand.New(rand.NewSource(2)), cfg)
	err := snap.Restore(ModelState(nano))
	if err == nil || !strings.Contains(err.Error(), "saved from model") {
		t.Fatalf("wrong-family restore = %v, want saved-from-model error", err)
	}
}

func TestModelStateRejectsMissingAndExtraState(t *testing.T) {
	m := newPico(1)
	snap := modelSnapshot(t, m)
	comp := snap.Components["model"]

	// Missing parameter state.
	name := "param/" + m.Params()[3].Name
	saved := comp[name]
	delete(comp, name)
	if err := snap.Restore(ModelState(newPico(2))); err == nil || !strings.Contains(err.Error(), "missing state") {
		t.Fatalf("missing param restore = %v, want missing-state error", err)
	}
	comp[name] = saved

	// Extra state the model does not have.
	comp.PutF32("param/ghost.w", []int{2}, []float32{1, 2})
	err := snap.Restore(ModelState(newPico(2)))
	if err == nil || !strings.Contains(err.Error(), "ghost.w") {
		t.Fatalf("extra-state restore = %v, want error naming ghost.w", err)
	}
	delete(comp, "param/ghost.w")

	// Shape mismatch.
	comp.PutF32(name, []int{1}, []float32{3})
	if err := snap.Restore(ModelState(newPico(2))); err == nil || !strings.Contains(err.Error(), "shape") {
		t.Fatalf("shape-mismatch restore = %v, want shape error", err)
	}
}

func TestSnapshotFileRoundTripAndErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.ckpt")
	snap := modelSnapshot(t, newPico(3))
	if err := WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Restore(ModelState(newPico(4))); err != nil {
		t.Fatal(err)
	}

	// Truncated file: descriptive decode error, not a panic or partial load.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.ckpt")
	if err := os.WriteFile(trunc, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshotFile(trunc); err == nil || !strings.Contains(err.Error(), "truncated or corrupt") {
		t.Fatalf("truncated read = %v, want truncated/corrupt error", err)
	}

	// Format-version mismatch.
	bad := modelSnapshot(t, newPico(3))
	bad.Format = SnapshotFormat + 5
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(&buf); err == nil || !strings.Contains(err.Error(), "unsupported snapshot format") {
		t.Fatalf("future-format read = %v, want unsupported-format error", err)
	}
}

func TestFormatCrossoverErrors(t *testing.T) {
	// A weights file is not a snapshot, and vice versa; both
	// directions must fail with errors that point at the right API.
	var weights bytes.Buffer
	if err := SaveWeights(&weights, newPico(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(weights.Bytes())); err == nil || !strings.Contains(err.Error(), "LoadWeights") {
		t.Fatalf("snapshot-read of weights file = %v, want pointer to LoadWeights", err)
	}

	var snapBuf bytes.Buffer
	if err := WriteSnapshot(&snapBuf, modelSnapshot(t, newPico(1))); err != nil {
		t.Fatal(err)
	}
	if err := LoadWeights(bytes.NewReader(snapBuf.Bytes()), newPico(2)); err == nil || !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("weights-read of snapshot file = %v, want pointer to snapshot API", err)
	}
}

func TestReadLatestSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Enqueue(3, modelSnapshot(t, newPico(7)))
	w.Enqueue(6, modelSnapshot(t, newPico(8)))
	w.Close()
	for _, ev := range w.Drain() {
		if ev.Err != nil {
			t.Fatal(ev.Err)
		}
	}
	// Corrupt the newest snapshot, as a crash mid-write would on a
	// filesystem without atomic rename; resume must fall back to step 3.
	if err := os.WriteFile(filepath.Join(dir, snapshotName(6)), []byte("shredded"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, path, err := ReadLatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(path, snapshotName(3)) {
		t.Fatalf("fell back to %s, want %s", path, snapshotName(3))
	}
	if err := snap.Restore(ModelState(newPico(9))); err != nil {
		t.Fatal(err)
	}
	// An empty directory is a descriptive error.
	if _, _, err := ReadLatestSnapshot(t.TempDir()); err == nil || !strings.Contains(err.Error(), "no snapshots") {
		t.Fatalf("empty-dir read = %v, want no-snapshots error", err)
	}
}

func TestWriterKeepLastPrunes(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for step := int64(1); step <= 5; step++ {
		w.Enqueue(step, modelSnapshot(t, newPico(step)))
	}
	w.Close()
	paths, err := ListSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("kept %d snapshots, want 2: %v", len(paths), paths)
	}
	if !strings.Contains(paths[0], snapshotName(4)) || !strings.Contains(paths[1], snapshotName(5)) {
		t.Fatalf("kept wrong snapshots: %v", paths)
	}
	// A new writer over the same directory counts existing files against
	// the bound.
	w2, err := NewWriter(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	w2.Enqueue(6, modelSnapshot(t, newPico(6)))
	w2.Close()
	paths, _ = ListSnapshots(dir)
	if len(paths) != 2 || !strings.Contains(paths[1], snapshotName(6)) {
		t.Fatalf("cross-process pruning kept %v", paths)
	}
}

func TestSnapshotListingIgnoresTempDroppings(t *testing.T) {
	// A crash mid-write leaves step-N.ckpt.tmp-XXX next to real snapshots.
	// Those must not be listed as snapshots (they would waste keep-last
	// retention slots and resume decode attempts), and a new writer sweeps
	// them away.
	dir := t.TempDir()
	w, err := NewWriter(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Enqueue(4, modelSnapshot(t, newPico(1)))
	w.Close()
	dropping := filepath.Join(dir, "step-000000009.ckpt.tmp-12345")
	if err := os.WriteFile(dropping, []byte("partial write"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "step-notanumber.ckpt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	paths, err := ListSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || !strings.Contains(paths[0], snapshotName(4)) {
		t.Fatalf("listing includes non-snapshots: %v", paths)
	}
	if _, path, err := ReadLatestSnapshot(dir); err != nil || !strings.Contains(path, snapshotName(4)) {
		t.Fatalf("latest = %s (%v), want step 4", path, err)
	}
	// A fresh writer over the directory sweeps the temp dropping.
	w2, err := NewWriter(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if _, err := os.Stat(dropping); !os.IsNotExist(err) {
		t.Fatalf("temp dropping survived writer startup: %v", err)
	}
}

func TestWriterReportsFailures(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Remove the directory out from under the writer so the write fails.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	w.Enqueue(1, modelSnapshot(t, newPico(1)))
	w.Flush()
	evs := w.Drain()
	w.Close()
	if len(evs) != 1 || evs[0].Err == nil {
		t.Fatalf("events = %+v, want one failure", evs)
	}
}
