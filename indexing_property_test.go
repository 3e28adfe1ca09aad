package psi

// End-to-end property tests for first-argument clause indexing: on the
// same program and query, dispatch through the index (PSI-II Indexing
// feature) must produce the same answers in the same order as the
// linear clause scan — including after retract/assertz have punched
// holes in the clause lists, which the indexed path must filter out
// via the dead-clause bookkeeping.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

const indexSrc = `
p(a, 1).
p(b, 2).
p(X, any(X)).
p(7, int7).
p([H|_], head(H)).
p(f(K), wrapped(K)).
p(a, 10).
p(f(Z), again(Z)).
p([], empty).
q(V, R) :- p(V, R).
drop2 :- retract(p(b, 2)).
dropvar :- retract(p(X, any(X))).
grow :- assertz(p(c, 3)).
`

// indexedVsLinear runs query on two fresh machines — linear dispatch
// and indexed dispatch — after running each setup goal once, and
// demands identical answer streams.
func indexedVsLinear(t *testing.T, setup []string, query string, vars []string) {
	t.Helper()
	run := func(idx bool) []string {
		m, err := LoadProgram(indexSrc, Options{Features: Features{Indexing: idx}})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range setup {
			s, err := m.Solve(g)
			if err != nil {
				t.Fatalf("setup %q: %v", g, err)
			}
			if _, ok := s.Next(); !ok {
				t.Fatalf("setup %q failed (err %v)", g, s.Err())
			}
		}
		s, err := m.Solve(query)
		if err != nil {
			t.Fatalf("Solve(%q): %v", query, err)
		}
		var out []string
		for len(out) < 16 {
			ans, ok := s.Next()
			if !ok {
				break
			}
			var row []string
			for _, v := range vars {
				if tm := ans[v]; tm != nil {
					row = append(row, v+"="+tm.String())
				}
			}
			out = append(out, strings.Join(row, ","))
		}
		if err := s.Err(); err != nil {
			t.Fatalf("query %q: %v", query, err)
		}
		return out
	}
	lin, idx := run(false), run(true)
	if fmt.Sprint(lin) != fmt.Sprint(idx) {
		t.Fatalf("setup %v query %q:\n  linear  %v\n  indexed %v", setup, query, lin, idx)
	}
}

func TestIndexedDispatchMatchesLinear(t *testing.T) {
	queries := []struct {
		q    string
		vars []string
	}{
		{"p(a, R)", []string{"R"}},      // duplicate const key, var clause interleaved
		{"p(b, R)", []string{"R"}},      // singleton const key
		{"p(7, R)", []string{"R"}},      // integer key
		{"p(c, R)", []string{"R"}},      // absent key: var bucket only
		{"p([], R)", []string{"R"}},     // nil is a constant, not a list
		{"p([x], R)", []string{"R"}},    // './2' structure key
		{"p(f(9), R)", []string{"R"}},   // functor key with two clauses
		{"p(g(9), R)", []string{"R"}},   // absent functor
		{"p(V, R)", []string{"V", "R"}}, // unbound first arg: full scan
		{"q(f(W), R)", []string{"W", "R"}},
	}
	for _, qc := range queries {
		indexedVsLinear(t, nil, qc.q, qc.vars)
	}
}

// TestIndexedDispatchAfterRetract re-checks every probe after dynamic
// clause mutations: retracting a const-keyed clause, retracting a
// var-keyed clause (which sits in every bucket), and growing the
// predicate (which invalidates the compile-time index).
func TestIndexedDispatchAfterRetract(t *testing.T) {
	setups := [][]string{
		{"drop2"},
		{"dropvar"},
		{"grow"},
		{"drop2", "dropvar"},
		{"drop2", "grow", "dropvar"},
	}
	for _, setup := range setups {
		for _, q := range []string{"p(a, R)", "p(b, R)", "p(c, R)", "p(f(1), R)", "p([x], R)"} {
			indexedVsLinear(t, setup, q, []string{"R"})
		}
		indexedVsLinear(t, setup, "p(V, R)", []string{"V", "R"})
	}
}

// TestIndexedDispatchRandomProbes drives randomized ground probes at
// the indexed and linear machines (seeded, deterministic).
func TestIndexedDispatchRandomProbes(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	atoms := []string{"a", "b", "c", "d", "7", "12", "[]", "[q]", "[1, 2]", "f(u)", "f(g(u))", "g(u)"}
	for i := 0; i < 30; i++ {
		q := fmt.Sprintf("p(%s, R)", atoms[r.Intn(len(atoms))])
		indexedVsLinear(t, nil, q, []string{"R"})
	}
}

// TestFastDifferentialIndexing crosses indexed dispatch with the
// accounting differential: with indexing on, the table expansion must
// still equal the per-cycle reference tap, untapped and tapped alike.
func TestFastDifferentialIndexing(t *testing.T) {
	for _, q := range []string{"p(a, R)", "p(f(1), R)", "p(V, R)"} {
		runTapPair(t, Options{Features: Features{Indexing: true}}, indexSrc, q, []string{"V", "R"}, 16)
	}
}
