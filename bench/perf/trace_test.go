package perf

import "testing"

func TestSelfTimesSubtractCoveredInterval(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: 10..60 covered once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the parent: 90..100 counts
		{Name: "leaf", Start: 12, End: 20, Parent: 1},
	}
	got := SelfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 8, 30, 30, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// At capacity the tracer keeps recording over its oldest spans, and the
// kept spans' parents index the returned slice.
func TestTracerCapacityAndNil(t *testing.T) {
	var none *Tracer
	none.End(none.Begin("x", -1, 0)) // a nil tracer records nothing

	tr := NewTracer(3)
	for i := 0; i < 2; i++ {
		root := tr.Begin("root", -1, i)
		tr.End(tr.Begin("child", root, i))
		tr.End(root)
	}
	spans := tr.Spans()
	if len(spans) != 3 || tr.Dropped() != 1 {
		t.Fatalf("kept %d spans, dropped %d; want 3 and 1", len(spans), tr.Dropped())
	}
	want := []Span{{Name: "child", Parent: -1, RequestID: 0}, {Name: "root", Parent: -1, RequestID: 1}, {Name: "child", Parent: 1, RequestID: 1}}
	for i, w := range want {
		if s := spans[i]; s.Name != w.Name || s.Parent != w.Parent || s.RequestID != w.RequestID {
			t.Errorf("span %d: %+v, want %+v", i, s, w)
		}
	}
}
