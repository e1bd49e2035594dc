package perf

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer. Every span of one request carries
// that request's id, whatever level of the stack it was replayed at.
type Span struct {
	Name      string `json:"name"`
	Start     int64  `json:"start_ns"` // since the tracer was created
	End       int64  `json:"end_ns"`
	Parent    int    `json:"parent"` // index of the enclosing span, -1 for none
	RequestID int    `json:"request_id"`
}

// Tracer keeps spans in memory until the run ends. Safe for concurrent use.
// Past its capacity it overwrites its oldest spans, so a span costs the
// same however long a hot loop runs, and memory stays bounded; Dropped
// counts the overwritten spans.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span // span k is spans[k % limit] while it is kept
	limit int
	next  int // spans begun so far
}

// NewTracer returns a tracer that keeps the last limit spans.
func NewTracer(limit int) *Tracer { return &Tracer{t0: time.Now(), limit: limit} }

// Begin opens a span and returns its id. A nil tracer records nothing.
func (t *Tracer) Begin(name string, parent, requestID int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.next
	t.next++
	s := Span{Name: name, Start: now, End: now, Parent: parent, RequestID: requestID}
	if len(t.spans) < t.limit {
		t.spans = append(t.spans, s)
	} else {
		t.spans[id%t.limit] = s
	}
	return id
}

// End closes span id, unless it was overwritten.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	if id >= t.next-len(t.spans) {
		t.spans[id%t.limit].End = now
	}
	t.mu.Unlock()
}

// Spans returns the kept spans, oldest first, with parents indexing the
// returned slice (-1 for a parent no longer kept).
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	first := t.next - len(t.spans) // id of the oldest kept span
	out := make([]Span, 0, len(t.spans))
	for id := first; id < t.next; id++ {
		s := t.spans[id%t.limit]
		if s.Parent >= first {
			s.Parent -= first
		} else {
			s.Parent = -1
		}
		out = append(out, s)
	}
	return out
}

// Dropped is the number of spans overwritten.
func (t *Tracer) Dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next - len(t.spans)
}

// SelfTimes returns each span's duration minus the part of its interval
// that its child spans cover (overlapping children count once).
func SelfTimes(spans []Span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := int64(0)
		cur := s.Start // end of the covered prefix
		for _, k := range kids {
			lo, hi := max(spans[k].Start, cur), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// SpanSummary is the per-name digest of a trace.
type SpanSummary struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	P50Ms     float64 `json:"p50_ms"`
	SelfP50Ms float64 `json:"self_p50_ms"`
}

// Summarize groups spans by name, with median duration and self time.
func Summarize(spans []Span) []SpanSummary {
	self := SelfTimes(spans)
	dur := map[string]*Hist{}
	selfH := map[string]*Hist{}
	for i, s := range spans {
		if dur[s.Name] == nil {
			dur[s.Name], selfH[s.Name] = NewHist(), NewHist()
		}
		dur[s.Name].Add(float64(s.End - s.Start))
		selfH[s.Name].Add(float64(self[i]))
	}
	var out []SpanSummary
	for name, h := range dur {
		out = append(out, SpanSummary{Name: name, Count: int(h.Count()), P50Ms: h.Ms(0.5), SelfP50Ms: selfH[name].Ms(0.5)})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// traceFile is the document -trace writes per workload.
type traceFile struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Dropped  int           `json:"dropped_spans"`
	Summary  []SpanSummary `json:"summary"`
	Spans    []Span        `json:"spans"`
}

// WriteTrace writes the tracer's spans and their summary to path.
func WriteTrace(path, workload string, seed int64, t *Tracer) error {
	spans := t.Spans()
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Dropped: t.Dropped(), Summary: Summarize(spans), Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
