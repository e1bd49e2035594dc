package strsim

import (
	"math"
	"testing"
	"testing/quick"
)

var allFuncs = []struct {
	name string
	fn   Func
}{
	{"indicator", Indicator},
	{"edit", NormalizedEditDistance},
	{"jaro-winkler", JaroWinkler},
}

// TestWellDefiniteness property-checks the Definition 4 requirement every
// label function must meet: range [0,1] and L(a,b) = 1 iff a == b.
func TestWellDefiniteness(t *testing.T) {
	for _, tc := range allFuncs {
		fn := tc.fn
		check := func(a, b string) bool {
			s := fn(a, b)
			if s < 0 || s > 1 {
				return false
			}
			if a == b && s != 1 {
				return false
			}
			if a != b && s >= 1 {
				return false
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func TestIndicator(t *testing.T) {
	if Indicator("a", "a") != 1 || Indicator("a", "b") != 0 {
		t.Fatal("indicator wrong")
	}
}

func TestEditDistanceKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"", "", 1},
		{"abc", "abc", 1},
		{"abc", "abd", 1 - 1.0/3},
		{"kitten", "sitting", 1 - 3.0/7},
		{"", "xy", 0},
		{"日本語", "日本", 1 - 1.0/3}, // rune-wise, not byte-wise
	}
	for _, c := range cases {
		if got := NormalizedEditDistance(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("L_E(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestJaroKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"MARTHA", "MARHTA", 0.944444},
		{"DIXON", "DICKSONX", 0.766667},
		{"JELLYFISH", "SMELLYFISH", 0.896296},
		{"abc", "xyz", 0},
	}
	for _, c := range cases {
		if got := Jaro(c.a, c.b); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("Jaro(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestJaroWinklerKnownValues(t *testing.T) {
	// MARTHA/MARHTA share a 3-rune prefix: 0.944444 + 3*0.1*(1-0.944444).
	if got, want := JaroWinkler("MARTHA", "MARHTA"), 0.961111; math.Abs(got-want) > 1e-4 {
		t.Errorf("JW(MARTHA,MARHTA) = %v, want %v", got, want)
	}
	// The prefix boost must never push a non-identical pair to 1.
	if got := JaroWinkler("aaaa", "aaaab"); got >= 1 {
		t.Errorf("JW boost reached 1 for distinct strings: %v", got)
	}
}

func TestByName(t *testing.T) {
	if ByName("indicator") == nil || ByName("edit") == nil || ByName("jw") == nil {
		t.Fatal("ByName missing known function")
	}
	if ByName("nope") != nil {
		t.Fatal("ByName should return nil for unknown names")
	}
}

func TestTable(t *testing.T) {
	n1 := []string{"a", "b"}
	n2 := []string{"a", "c", "b"}
	tab := mustTable(t, Indicator, n1, n2, 0, 1)
	if tab.Sim(0, 0) != 1 || tab.Sim(0, 1) != 0 || tab.Sim(1, 2) != 1 || !tab.Eligible(0, 1) {
		t.Fatal("table lookup wrong")
	}
	tab = mustTable(t, Indicator, n1, n2, 0.5, 1)
	if tab.Sim(0, 0) != 1 || tab.Sim(0, 1) != 0 || tab.Eligible(0, 1) || tab.Stored() != 2 {
		t.Fatal("table at θ = 0.5 wrong")
	}
}
