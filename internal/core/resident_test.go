package core

import (
	"reflect"
	"testing"

	"fsim/internal/dataset"
	"fsim/internal/exact"
)

// residentBytes sums cap × element size over the slices a value of struct
// type holds directly, and over those of the structs its pointer fields
// named in follow point to.
func residentBytes(v reflect.Value, follow map[string]bool) int {
	total := 0
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch {
		case f.Kind() == reflect.Slice:
			total += f.Cap() * int(f.Type().Elem().Size())
		case f.Kind() == reflect.Pointer && follow[v.Type().Field(i).Name] && !f.IsNil():
			total += residentBytes(f.Elem(), nil)
		}
	}
	return total
}

// TestServingResidentBytes pins the bytes a serving candidate set keeps
// resident: the NELL stand-in at 1/90 under the serving options (bj,
// θ = 0.6, §3.4 pruning with α = 0.3 and β = 0.5, one thread), summed as
// cap × element size over the set's slices and its label table's. The
// graphs, the options and pooled scratch are not counted. A change that
// moves it updates it here, so the move shows in the diff.
func TestServingResidentBytes(t *testing.T) {
	const want = 79752
	g := dataset.MustPaperSpec("NELL", 90).Generate()
	opts := DefaultOptions(exact.BJ)
	opts.Threads = 1
	opts.Theta = 0.6
	opts.UpperBoundOpt = &UpperBound{Alpha: 0.3, Beta: 0.5}
	cs, err := NewCandidateSet(g, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := residentBytes(reflect.ValueOf(cs).Elem(), map[string]bool{"table": true})
	if got != want {
		t.Errorf("resident bytes = %d, want %d", got, want)
	}
}
