package checkpoint

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"effnetscale/internal/efficientnet"
	"effnetscale/internal/nn"
)

// weightsFormat is the weights-only layout: parameters as a name-sorted
// slice, so identical weights always encode to identical bytes and two
// checkpoints can be compared with cmp/sha256sum. It shares one number space
// with SnapshotFormat (2) so each reader can recognize the other kind of
// file and point at the right API instead of failing on a field mismatch.
const weightsFormat = 3

// weightsFile is the on-disk representation of the weights-only format.
type weightsFile struct {
	Format     int
	ModelName  string
	NumClasses int
	Resolution int
	Params     []namedBlob
	BNMeans    []tensorBlob
	BNVars     []tensorBlob
}

type tensorBlob struct {
	Shape []int
	Data  []float32
}

type namedBlob struct {
	Name  string
	Shape []int
	Data  []float32
}

// SaveWeights writes the model's parameters and BN running statistics to w
// in the weights-only serving format (previously checkpoint.Save). The
// encoding is deterministic: saving the same weights twice produces
// byte-identical output, so two training runs can be compared with cmp on
// their checkpoints. Full training state belongs in a Snapshot instead.
func SaveWeights(w io.Writer, m *efficientnet.Model) error {
	s := weightsFile{
		Format:     weightsFormat,
		ModelName:  m.Config.Name,
		NumClasses: m.Config.NumClasses,
		Resolution: m.Config.Resolution,
	}
	seen := make(map[string]bool)
	for _, p := range m.Params() {
		if seen[p.Name] {
			return fmt.Errorf("checkpoint: duplicate parameter name %q", p.Name)
		}
		seen[p.Name] = true
		s.Params = append(s.Params, namedBlob{
			Name:  p.Name,
			Shape: append([]int(nil), p.Data().Shape()...),
			Data:  append([]float32(nil), p.Data().Data()...),
		})
	}
	sort.Slice(s.Params, func(i, j int) bool { return s.Params[i].Name < s.Params[j].Name })
	for _, bn := range m.BatchNorms() {
		s.BNMeans = append(s.BNMeans, tensorBlob{Shape: bn.RunningMean.Shape(), Data: append([]float32(nil), bn.RunningMean.Data()...)})
		s.BNVars = append(s.BNVars, tensorBlob{Shape: bn.RunningVar.Shape(), Data: append([]float32(nil), bn.RunningVar.Data()...)})
	}
	return gob.NewEncoder(w).Encode(s)
}

// decodeWeights reads a weights-only file from r. Format validation belongs
// to the caller: a snapshot file decodes "successfully" here (its Format
// field is readable, its components are not weights fields) precisely so the
// caller can point at the snapshot API.
func decodeWeights(r io.Reader) (*weightsFile, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read: %w", err)
	}
	var s weightsFile
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&s); err != nil {
		// A file whose fields have other types (format 1 kept parameters in
		// a map) fails before any value decodes; read only its format
		// number so the error can name it.
		var h struct{ Format int }
		if gob.NewDecoder(bytes.NewReader(raw)).Decode(&h) == nil && h.Format != weightsFormat {
			return nil, fmt.Errorf("checkpoint: unsupported weights format %d (want %d)", h.Format, weightsFormat)
		}
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	return &s, nil
}

// LoadWeights restores parameters and BN statistics into m, which must have
// the same architecture the checkpoint was saved from. Parameters are matched
// by name.
func LoadWeights(r io.Reader, m *efficientnet.Model) error {
	s, err := decodeWeights(r)
	if err != nil {
		return err
	}
	if s.Format != weightsFormat {
		if s.Format == SnapshotFormat {
			return fmt.Errorf("checkpoint: file is a full training snapshot (format %d); restore it with ReadSnapshot / train.WithResume, or extract weights via the model codec", SnapshotFormat)
		}
		return fmt.Errorf("checkpoint: unsupported format %d (want %d)", s.Format, weightsFormat)
	}
	if s.ModelName != m.Config.Name {
		return fmt.Errorf("checkpoint: saved from model %q, loading into %q", s.ModelName, m.Config.Name)
	}
	params := m.Params()
	if len(s.Params) != len(params) {
		return fmt.Errorf("checkpoint: has %d params, model has %d", len(s.Params), len(params))
	}
	blobs := make(map[string]namedBlob, len(s.Params))
	for _, b := range s.Params {
		blobs[b.Name] = b
	}
	for _, p := range params {
		blob, ok := blobs[p.Name]
		if !ok {
			return fmt.Errorf("checkpoint: missing parameter %q", p.Name)
		}
		if len(blob.Data) != p.Data().Len() {
			return fmt.Errorf("checkpoint: parameter %q has %d elements, model wants %d", p.Name, len(blob.Data), p.Data().Len())
		}
		copy(p.Data().Data(), blob.Data)
	}
	bns := m.BatchNorms()
	if len(s.BNMeans) != len(bns) || len(s.BNVars) != len(bns) {
		return fmt.Errorf("checkpoint: has %d BN stats, model has %d", len(s.BNMeans), len(bns))
	}
	for i, bn := range bns {
		if len(s.BNMeans[i].Data) != bn.RunningMean.Len() {
			return fmt.Errorf("checkpoint: BN %d stats size mismatch", i)
		}
		copy(bn.RunningMean.Data(), s.BNMeans[i].Data)
		copy(bn.RunningVar.Data(), s.BNVars[i].Data)
	}
	return nil
}

// SaveWeightsFile writes a weights-only checkpoint to path atomically and
// durably (temp file + fsync + rename + directory fsync; previously
// checkpoint.SaveFile, which renamed without syncing).
func SaveWeightsFile(path string, m *efficientnet.Model) error {
	return writeFileAtomic(path, func(w io.Writer) error { return SaveWeights(w, m) })
}

// LoadWeightsFile restores a weights-only checkpoint from path (previously
// checkpoint.LoadFile).
func LoadWeightsFile(path string, m *efficientnet.Model) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return LoadWeights(f, m)
}

// WeightsInfo reports a weights-only checkpoint's model identity without a
// pre-built model: family name, class count and train/eval resolution. A
// serving loader uses this to construct the matching architecture before
// LoadWeightsFile fills it.
func WeightsInfo(path string) (model string, numClasses, resolution int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, 0, err
	}
	defer f.Close()
	s, err := decodeWeights(f)
	if err != nil {
		return "", 0, 0, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	if s.Format != weightsFormat {
		return "", 0, 0, fmt.Errorf("checkpoint: %s has format %d, not a weights-only checkpoint (want %d)", path, s.Format, weightsFormat)
	}
	return s.ModelName, s.NumClasses, s.Resolution, nil
}

// ModelInfo reports the model identity recorded in a snapshot's "model"
// component — the counterpart of WeightsInfo for full training-state
// snapshots.
func ModelInfo(s *Snapshot) (model string, numClasses, resolution int, err error) {
	c, err := s.Component("model")
	if err != nil {
		return "", 0, 0, err
	}
	family, err := c.Str("family")
	if err != nil {
		return "", 0, 0, err
	}
	classes, err := c.I64("classes")
	if err != nil {
		return "", 0, 0, err
	}
	res, err := c.I64("resolution")
	if err != nil {
		return "", 0, 0, err
	}
	return family, int(classes), int(res), nil
}

// --- Model state codec --------------------------------------------------------

// modelState adapts an EfficientNet model to the StateCodec interface:
// parameters keyed by name ("param/<name>") plus BN running statistics in
// layer order ("bn/<i>/mean", "bn/<i>/var") and the model identity, all
// validated on restore.
type modelState struct {
	m *efficientnet.Model
}

// ModelState returns the model's snapshot codec (component "model").
func ModelState(m *efficientnet.Model) StateCodec { return modelState{m} }

// StateKey implements StateCodec.
func (modelState) StateKey() string { return "model" }

// CaptureState implements StateCodec.
func (s modelState) CaptureState() (Component, error) {
	c := Component{}
	c.PutStr("family", s.m.Config.Name)
	c.PutI64("classes", int64(s.m.Config.NumClasses))
	c.PutI64("resolution", int64(s.m.Config.Resolution))
	if _, err := nn.ParamIndex(s.m.Params()); err != nil {
		return nil, err
	}
	for _, p := range s.m.Params() {
		c.PutF32("param/"+p.Name, p.Data().Shape(), p.Data().Data())
	}
	for i, bn := range s.m.BatchNorms() {
		c.PutF32(fmt.Sprintf("bn/%d/mean", i), bn.RunningMean.Shape(), bn.RunningMean.Data())
		c.PutF32(fmt.Sprintf("bn/%d/var", i), bn.RunningVar.Shape(), bn.RunningVar.Data())
	}
	return c, nil
}

// RestoreState implements StateCodec. Every model parameter and BN layer
// must be present with matching shape, and the component must carry nothing
// the model does not have — extra state means the snapshot was taken from a
// different architecture and silently dropping it would corrupt the resume.
func (s modelState) RestoreState(c Component) error {
	family, err := c.Str("family")
	if err != nil {
		return err
	}
	if family != s.m.Config.Name {
		return fmt.Errorf("snapshot saved from model %q, restoring into %q", family, s.m.Config.Name)
	}
	classes, err := c.I64("classes")
	if err != nil {
		return err
	}
	if int(classes) != s.m.Config.NumClasses {
		return fmt.Errorf("snapshot has %d classes, model has %d", classes, s.m.Config.NumClasses)
	}
	res, err := c.I64("resolution")
	if err != nil {
		return err
	}
	if int(res) != s.m.Config.Resolution {
		return fmt.Errorf("snapshot at resolution %d, model at %d", res, s.m.Config.Resolution)
	}
	known := map[string]bool{"family": true, "classes": true, "resolution": true}
	for _, p := range s.m.Params() {
		key := "param/" + p.Name
		data, err := c.F32(key, p.Data().Shape())
		if err != nil {
			return err
		}
		copy(p.Data().Data(), data)
		known[key] = true
	}
	for i, bn := range s.m.BatchNorms() {
		for _, kv := range []struct {
			key string
			dst []float32
			sh  []int
		}{
			{fmt.Sprintf("bn/%d/mean", i), bn.RunningMean.Data(), bn.RunningMean.Shape()},
			{fmt.Sprintf("bn/%d/var", i), bn.RunningVar.Data(), bn.RunningVar.Shape()},
		} {
			data, err := c.F32(kv.key, kv.sh)
			if err != nil {
				return err
			}
			copy(kv.dst, data)
			known[kv.key] = true
		}
	}
	var extra []string
	for key := range c {
		if !known[key] {
			extra = append(extra, key)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("snapshot carries state the model does not have: %s", strings.Join(extra, ", "))
	}
	return nil
}
