package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval recorded by the benchmark around a call into
// the program's public API. Parent is the enclosing span's ID (0 = root).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Start and End are offsets from the tracer's epoch, in nanoseconds.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay one pointer check per call site. Safe for
// concurrent use.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// newTracer returns a tracer when on, nil otherwise.
func newTracer(on bool) *Tracer {
	if !on {
		return nil
	}
	return &Tracer{epoch: time.Now()}
}

// Record adds a finished span and returns its ID (0 on a nil tracer).
func (t *Tracer) Record(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return id
}

// Begin opens a span now; the returned func closes it. The span's ID is
// reserved at Begin so children recorded before the close can name it.
func (t *Tracer) Begin(name string, parent int) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	t.mu.Lock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: int64(start.Sub(t.epoch))})
	t.mu.Unlock()
	return id, func() {
		now := time.Now()
		t.mu.Lock()
		t.spans[id-1].End = int64(now.Sub(t.epoch))
		t.mu.Unlock()
	}
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SpanStat aggregates the spans of one name.
type SpanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its direct children (overlapping children are
// merged, so concurrent children are not double-subtracted; child time
// outside the parent's interval is clipped).
func selfTimes(spans []Span) map[int]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// summarize aggregates spans by name, ordered by total time descending.
func summarize(spans []Span) []SpanStat {
	self := selfTimes(spans)
	by := map[string]*SpanStat{}
	for _, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &SpanStat{Name: s.Name}
			by[s.Name] = st
		}
		st.Count++
		st.TotalMS += float64(s.End-s.Start) / 1e6
		st.SelfMS += float64(self[s.ID]) / 1e6
	}
	out := make([]SpanStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalMS != out[j].TotalMS {
			return out[i].TotalMS > out[j].TotalMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// WriteFile writes the spans and their per-name summary as JSON.
func (t *Tracer) WriteFile(path string) error {
	spans := t.Spans()
	b, err := json.Marshal(struct {
		Summary []SpanStat `json:"summary"`
		Spans   []Span     `json:"spans"`
	}{summarize(spans), spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
