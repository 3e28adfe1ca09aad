package psi

// Native fuzz targets: the Prolog reader must never panic on arbitrary
// input, and the two engines must agree on whatever parses and runs
// within budget. Run with `go test -fuzz=FuzzParse` (etc.); the seeds
// double as regression cases under plain `go test`.

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/kl0"
	"repro/internal/parse"
)

func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"p(X) :- q(X, [1,2|T]), X = 'a b'.",
		"a. b. c :- a, b.",
		`p :- write("str"), X is 1+2*3.`,
		"p([H|T]) :- \\+ H = T, (a ; b -> c ; d).",
		"0'a. % comment\n/* block */ q(0''').",
		"p :- q((,)).",
		"-(-(1)).",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Must not panic; errors are fine.
		_, _ = ParseTerm(src)
		if _, err := LoadProgram(src, Options{MaxSteps: 100000}); err != nil {
			return
		}
		// What compiles through the arena compiles through source terms
		// (parse.Clauses, then AddClauses) to the same image.
		viaArena, viaTerms := kl0.NewProgram(nil), kl0.NewProgram(nil)
		if err := viaArena.AddSource("<program>", src); err != nil {
			t.Fatal(err)
		}
		cs, err := parse.Clauses("<program>", src)
		if err == nil {
			err = viaTerms.AddClauses(cs)
		}
		if err != nil {
			t.Fatalf("the arena path compiles, the term path fails: %v", err)
		}
		sameImage(t, viaArena, viaTerms)
	})
}

// sameImage demands two compiled images equal word for word: code,
// symbol numbering, procedures with their clause tables, and the
// procedure owning every code offset.
func sameImage(t *testing.T, a, b *kl0.Program) {
	t.Helper()
	if !slices.Equal(a.Code, b.Code) {
		t.Fatalf("code differs:\n%v\n%v", a.Code, b.Code)
	}
	if a.Syms.Len() != b.Syms.Len() {
		t.Fatalf("%d symbols, %d symbols", a.Syms.Len(), b.Syms.Len())
	}
	for i := uint32(0); int(i) < a.Syms.Len(); i++ {
		if a.Syms.Name(i) != b.Syms.Name(i) {
			t.Fatalf("symbol %d: %q, %q", i, a.Syms.Name(i), b.Syms.Name(i))
		}
	}
	if len(a.Procs) != len(b.Procs) {
		t.Fatalf("%d procedures, %d procedures", len(a.Procs), len(b.Procs))
	}
	for i, p := range a.Procs {
		q := b.Procs[i]
		if p.Name != q.Name || p.Sym != q.Sym || p.Arity != q.Arity || !slices.Equal(p.Clauses, q.Clauses) {
			t.Fatalf("procedure %d: %s/%d %v, %s/%d %v", i, p.Name, p.Arity, p.Clauses, q.Name, q.Arity, q.Clauses)
		}
	}
	for off := range a.Code {
		if a.ProcAt(off) != b.ProcAt(off) {
			t.Fatalf("offset %d: procedure %d, %d", off, a.ProcAt(off), b.ProcAt(off))
		}
	}
}

func FuzzDifferentialQuery(f *testing.F) {
	for _, seed := range []string{
		"eq(f(X, [1|X]), f([a], Y))",
		"app(X, Y, [a,b,c])",
		"mem(g(Z), [g(1), h(2), g(x)])",
	} {
		f.Add(seed)
	}
	prog := `
eq(X, X).
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
mem(X, [X|_]).
mem(X, [_|T]) :- mem(X, T).
`
	f.Fuzz(func(t *testing.T, query string) {
		if strings.ContainsAny(query, ";") {
			return // disjunction differs by design in metacall position
		}
		pm, err := LoadProgram(prog, Options{MaxSteps: 500000})
		if err != nil {
			return
		}
		ps, err := pm.Solve(query)
		if err != nil {
			return
		}
		var psiOK bool
		var psiAns string
		if ans, ok := ps.Next(); ok {
			psiOK = true
			for _, v := range []string{"X", "Y", "Z"} {
				if tm := ans[v]; tm != nil {
					psiAns += v + "=" + tm.String() + ";"
				}
			}
		}
		if ps.Err() != nil {
			return // resource/type errors need not agree across engines
		}
		bm, err := LoadBaseline(prog, nil)
		if err != nil {
			return
		}
		bs, err := bm.Solve(query)
		if err != nil {
			return
		}
		var decOK bool
		var decAns string
		if ans, ok := bs.Next(); ok {
			decOK = true
			for _, v := range []string{"X", "Y", "Z"} {
				if tm := ans[v]; tm != nil {
					decAns += v + "=" + tm.String() + ";"
				}
			}
		}
		if bs.Err() != nil {
			return
		}
		if psiOK != decOK {
			t.Fatalf("engines disagree on %q: PSI %v, DEC %v", query, psiOK, decOK)
		}
		if psiOK && normVars(psiAns) != normVars(decAns) {
			t.Fatalf("answers differ on %q: %q vs %q", query, psiAns, decAns)
		}
	})
}
