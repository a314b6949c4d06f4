package checkpoint

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// SnapshotFormat is the on-disk format version of full training-state
// snapshots. The weights-only format (SaveWeights / LoadWeights) is version
// 3; bump this on incompatible layout changes.
const SnapshotFormat = 2

// Blob is one named piece of component state: a shaped float32 tensor, a
// float64/int64 vector, or a string. Exactly the payload kinds the training
// stack needs — weights and optimizer slots (F32 + Shape), bit-exact scalar
// metrics and RNG cursors (F64/I64), and identity/config strings (Str).
type Blob struct {
	Shape []int
	F32   []float32
	F64   []float64
	I64   []int64
	Str   string
}

// Component is the serialized state of one training subsystem (the model,
// an optimizer, one replica's private state, ...), keyed by blob name.
type Component map[string]Blob

// PutF32 stores a copy of data under key with the given shape. Copying is
// deliberate: captures happen at a step boundary and the training loop keeps
// mutating the source buffers immediately afterwards, while the async writer
// is still encoding the snapshot.
func (c Component) PutF32(key string, shape []int, data []float32) {
	c[key] = Blob{
		Shape: append([]int(nil), shape...),
		F32:   append([]float32(nil), data...),
	}
}

// PutI64 stores a single int64 under key.
func (c Component) PutI64(key string, v int64) { c[key] = Blob{I64: []int64{v}} }

// PutF64 stores a single float64 under key (bit-exact, unlike a float32
// round trip).
func (c Component) PutF64(key string, v float64) { c[key] = Blob{F64: []float64{v}} }

// PutF64s stores a copy of a float64 vector under key.
func (c Component) PutF64s(key string, vals []float64) {
	c[key] = Blob{F64: append([]float64(nil), vals...)}
}

// PutStr stores a string under key.
func (c Component) PutStr(key, v string) { c[key] = Blob{Str: v} }

// F32 returns the float32 payload under key, validating presence and, when
// wantShape is non-nil, the exact shape.
func (c Component) F32(key string, wantShape []int) ([]float32, error) {
	b, ok := c[key]
	if !ok {
		return nil, fmt.Errorf("checkpoint: missing state %q", key)
	}
	if b.F32 == nil {
		return nil, fmt.Errorf("checkpoint: state %q holds no float32 payload", key)
	}
	if wantShape != nil {
		if len(b.Shape) != len(wantShape) {
			return nil, fmt.Errorf("checkpoint: state %q has shape %v, want %v", key, b.Shape, wantShape)
		}
		n := 1
		for i, d := range wantShape {
			if b.Shape[i] != d {
				return nil, fmt.Errorf("checkpoint: state %q has shape %v, want %v", key, b.Shape, wantShape)
			}
			n *= d
		}
		if len(b.F32) != n {
			return nil, fmt.Errorf("checkpoint: state %q has %d elements, shape %v wants %d", key, len(b.F32), wantShape, n)
		}
	}
	return b.F32, nil
}

// I64 returns the int64 scalar under key.
func (c Component) I64(key string) (int64, error) {
	b, ok := c[key]
	if !ok {
		return 0, fmt.Errorf("checkpoint: missing state %q", key)
	}
	if len(b.I64) != 1 {
		return 0, fmt.Errorf("checkpoint: state %q is not an int64 scalar", key)
	}
	return b.I64[0], nil
}

// F64 returns the float64 scalar under key.
func (c Component) F64(key string) (float64, error) {
	b, ok := c[key]
	if !ok {
		return 0, fmt.Errorf("checkpoint: missing state %q", key)
	}
	if len(b.F64) != 1 {
		return 0, fmt.Errorf("checkpoint: state %q is not a float64 scalar", key)
	}
	return b.F64[0], nil
}

// F64s returns the float64 vector under key.
func (c Component) F64s(key string) ([]float64, error) {
	b, ok := c[key]
	if !ok {
		return nil, fmt.Errorf("checkpoint: missing state %q", key)
	}
	if b.F64 == nil {
		return nil, fmt.Errorf("checkpoint: state %q holds no float64 payload", key)
	}
	return b.F64, nil
}

// Str returns the string under key.
func (c Component) Str(key string) (string, error) {
	b, ok := c[key]
	if !ok {
		return "", fmt.Errorf("checkpoint: missing state %q", key)
	}
	return b.Str, nil
}

// Keys returns the component's blob names, sorted.
func (c Component) Keys() []string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Snapshot is a complete, versioned capture of training state at a step
// boundary: one Component per stateful subsystem. A run restored from a
// snapshot continues bit-for-bit identically to the uninterrupted run.
type Snapshot struct {
	Format     int
	Components map[string]Component
}

// NewSnapshot returns an empty snapshot at the current format version.
func NewSnapshot() *Snapshot {
	return &Snapshot{Format: SnapshotFormat, Components: map[string]Component{}}
}

// Add registers a component under key, rejecting duplicates (two subsystems
// claiming one key would silently shadow each other's state).
func (s *Snapshot) Add(key string, c Component) error {
	if _, dup := s.Components[key]; dup {
		return fmt.Errorf("checkpoint: duplicate snapshot component %q", key)
	}
	s.Components[key] = c
	return nil
}

// Component returns the named component, with an error naming the available
// components when it is absent — the "missing subsystem state" failure mode.
func (s *Snapshot) Component(key string) (Component, error) {
	c, ok := s.Components[key]
	if !ok {
		return nil, fmt.Errorf("checkpoint: snapshot has no %q component (has %v)", key, s.Keys())
	}
	return c, nil
}

// Keys returns the snapshot's component names, sorted.
func (s *Snapshot) Keys() []string {
	keys := make([]string, 0, len(s.Components))
	for k := range s.Components {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// StateCodec is the seam every stateful training subsystem implements to
// participate in snapshots: the model, each optimizer, the weight EMA, and
// each replica's private state (BN statistics, RNG cursors). CaptureState
// must deep-copy anything still mutated by training; RestoreState must
// validate presence and shape of everything it reads and reject unknown
// state rather than silently dropping it.
type StateCodec interface {
	// StateKey names this subsystem's component inside a snapshot.
	StateKey() string
	// CaptureState serializes the subsystem's current state.
	CaptureState() (Component, error)
	// RestoreState overwrites the subsystem's state from a captured
	// component.
	RestoreState(Component) error
}

// Capture adds each codec's component to the snapshot.
func (s *Snapshot) Capture(codecs ...StateCodec) error {
	for _, codec := range codecs {
		c, err := codec.CaptureState()
		if err != nil {
			return fmt.Errorf("checkpoint: capture %q: %w", codec.StateKey(), err)
		}
		if err := s.Add(codec.StateKey(), c); err != nil {
			return err
		}
	}
	return nil
}

// Restore feeds each codec its component from the snapshot, erroring if any
// component is missing or rejected.
func (s *Snapshot) Restore(codecs ...StateCodec) error {
	for _, codec := range codecs {
		c, err := s.Component(codec.StateKey())
		if err != nil {
			return err
		}
		if err := codec.RestoreState(c); err != nil {
			return fmt.Errorf("checkpoint: restore %q: %w", codec.StateKey(), err)
		}
	}
	return nil
}

// --- Snapshot file IO --------------------------------------------------------

// WriteSnapshot gob-encodes the snapshot to w.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	if err := gob.NewEncoder(w).Encode(s); err != nil {
		return fmt.Errorf("checkpoint: encode snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot decodes and validates a snapshot from r. Weights-only
// checkpoints (format 3) are detected and rejected with a pointer to
// LoadWeights; truncated or corrupt input fails the decode with a
// descriptive error rather than returning partial state.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("checkpoint: decode snapshot (truncated or corrupt?): %w", err)
	}
	if s.Format == weightsFormat {
		return nil, fmt.Errorf("checkpoint: file is a weights-only checkpoint (format %d); load it with LoadWeights", s.Format)
	}
	if s.Format != SnapshotFormat {
		return nil, fmt.Errorf("checkpoint: unsupported snapshot format %d (want %d)", s.Format, SnapshotFormat)
	}
	if len(s.Components) == 0 {
		return nil, fmt.Errorf("checkpoint: snapshot has no components")
	}
	return &s, nil
}

// WriteSnapshotFile writes the snapshot to path atomically and durably: the
// payload goes to a temp file in the same directory, which is fsynced before
// the rename and whose directory is fsynced after it, so a crash at any
// point leaves either the complete old file or the complete new one — never
// a truncated snapshot under the final name.
func WriteSnapshotFile(path string, s *Snapshot) error {
	return writeFileAtomic(path, func(w io.Writer) error { return WriteSnapshot(w, s) })
}

// ReadSnapshotFile reads and validates a snapshot from path.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := ReadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// snapshotName formats the file name periodic snapshots are written under.
func snapshotName(step int64) string { return fmt.Sprintf("step-%09d.ckpt", step) }

// snapshotStep parses a snapshot file name, reporting ok=false for files
// that are not periodic snapshots. The match is exact — in particular the
// temp files a crash can leave next to real snapshots
// ("step-N.ckpt.tmp-123") must not count, or retention pruning would spend
// keep-last slots on unreadable garbage.
func snapshotStep(name string) (step int64, ok bool) {
	digits, found := strings.CutPrefix(name, "step-")
	digits, found2 := strings.CutSuffix(digits, ".ckpt")
	if !found || !found2 || digits == "" {
		return 0, false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	s, err := strconv.ParseInt(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return s, true
}

// ListSnapshots returns the periodic snapshot files in dir, sorted by step
// ascending. A missing directory is an empty listing, not an error.
func ListSnapshots(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	type cand struct {
		step int64
		path string
	}
	var cands []cand
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if step, ok := snapshotStep(e.Name()); ok {
			cands = append(cands, cand{step, filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].step < cands[j].step })
	paths := make([]string, len(cands))
	for i, c := range cands {
		paths[i] = c.path
	}
	return paths, nil
}

// ReadLatestSnapshot loads the newest readable snapshot from dir, falling
// back to older ones when the newest is truncated or corrupt (the file a
// crash interrupted mid-write, on filesystems without rename atomicity).
// The returned path names the snapshot actually loaded.
func ReadLatestSnapshot(dir string) (*Snapshot, string, error) {
	paths, err := ListSnapshots(dir)
	if err != nil {
		return nil, "", err
	}
	if len(paths) == 0 {
		return nil, "", fmt.Errorf("checkpoint: no snapshots (step-*.ckpt) in %s", dir)
	}
	var errs []error
	for i := len(paths) - 1; i >= 0; i-- {
		s, err := ReadSnapshotFile(paths[i])
		if err == nil {
			return s, paths[i], nil
		}
		errs = append(errs, err)
	}
	return nil, "", fmt.Errorf("checkpoint: no readable snapshot in %s: %w", dir, errors.Join(errs...))
}

// writeFileAtomic writes via a same-directory temp file with fsync on the
// file before rename and on the directory after, shared by snapshot and
// weights writers.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	// fsync the temp file before renaming it into place: rename orders
	// metadata, not data, so without this a crash shortly after "atomic"
	// save could still expose a truncated or empty checkpoint under the
	// final name.
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// fsync the directory so the rename itself survives a crash.
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
