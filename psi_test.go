package psi

import (
	"strings"
	"testing"
)

const appendSrc = `
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
`

func TestQuickstartFlow(t *testing.T) {
	m, err := LoadProgram(appendSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sols, err := m.Solve("app(X, Y, [1,2,3])")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		ans, ok := sols.Next()
		if !ok {
			break
		}
		n++
		if ans["X"] == nil || ans["Y"] == nil {
			t.Fatal("missing bindings")
		}
	}
	if n != 4 {
		t.Fatalf("split count = %d", n)
	}
	if m.Steps() == 0 || m.TimeNS() == 0 || m.Inferences() == 0 {
		t.Error("no metrics")
	}
	if m.KLIPS() <= 0 {
		t.Error("KLIPS")
	}
	r := m.Report()
	for _, want := range []string{"steps", "modules:", "memory:", "areas:", "cache:"} {
		if !strings.Contains(r, want) {
			t.Errorf("report missing %q:\n%s", want, r)
		}
	}
}

func TestOptionsCacheConfig(t *testing.T) {
	m, err := LoadProgram(appendSrc, Options{CacheWords: 512, CacheSets: 1, StoreThrough: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := m.Cache().Config()
	if cfg.Words != 512 || cfg.Assoc != 1 {
		t.Errorf("cache config %v", cfg)
	}
	if m.CacheHitRatio() != 1 {
		t.Error("untouched cache should report 1")
	}
}

func TestNoCache(t *testing.T) {
	m, err := LoadProgram(appendSrc, Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cache() != nil {
		t.Fatal("cache should be nil")
	}
	sols, _ := m.Solve("app([1],[2],R)")
	if _, ok := sols.Next(); !ok {
		t.Fatal("query failed")
	}
	if m.CacheHitRatio() != 1 {
		t.Error("no-cache hit ratio")
	}
}

func TestCollectTrace(t *testing.T) {
	m, err := LoadProgram(appendSrc, Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	sols, _ := m.Solve("app([1,2],[3],R)")
	sols.Next()
	if m.Trace() == nil || m.Trace().Len() == 0 {
		t.Fatal("no trace collected")
	}
	if int64(m.Trace().Len()) != m.Steps() {
		t.Errorf("trace %d records vs %d steps", m.Trace().Len(), m.Steps())
	}
}

func TestAddClauses(t *testing.T) {
	m, err := LoadProgram(appendSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddClauses("pal(L) :- app(A, B, L), A = B."); err == nil {
		// A = B with lists is fine; the clause references app from the
		// earlier batch.
		sols, _ := m.Solve("pal([1,1])")
		if _, ok := sols.Next(); ok {
			t.Log("palindrome-ish query succeeded")
		}
	} else {
		t.Fatal(err)
	}
}

// TestAddClausesAfterAssertz checks that the library follows the
// machine onto its private program copy: clauses added after an assertz
// reach the running program, and the profile names the asserted
// predicate.
func TestAddClausesAfterAssertz(t *testing.T) {
	m, err := LoadProgram("n(1).", Options{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []string{"assertz(n(2)), assertz(d(0))", "d(0)"} {
		sols, err := m.Solve(step)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := sols.Next(); !ok {
			t.Fatalf("%s failed: %v", step, sols.Err())
		}
	}
	if err := m.AddClauses("n(3)."); err != nil {
		t.Fatal(err)
	}
	sols, err := m.Solve("n(X)")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for {
		ans, ok := sols.Next()
		if !ok {
			break
		}
		got = append(got, ans["X"].String())
	}
	if strings.Join(got, ",") != "1,2,3" {
		t.Fatalf("n(X) answers %v, want 1,2,3", got)
	}
	found := false
	for _, p := range m.Profile("dyn").Entries {
		found = found || p.Name == "d/1"
	}
	if !found {
		t.Fatal("profile does not name the asserted predicate d/1")
	}
}

func TestBaseline(t *testing.T) {
	b, err := LoadBaseline(appendSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	sols, err := b.Solve("app([1,2],[3],R)")
	if err != nil {
		t.Fatal(err)
	}
	ans, ok := sols.Next()
	if !ok || ans["R"].String() != "[1,2,3]" {
		t.Fatalf("baseline answer %v", ans)
	}
	if b.TimeNS() <= 0 || b.Calls() <= 0 {
		t.Error("baseline metrics")
	}
}

func TestInterruptViaAPI(t *testing.T) {
	m, err := LoadProgram(`
handler_work(0) :- !.
handler_work(N) :- M is N - 1, handler_work(M).
svc :- handler_work(5).
main :- interrupt, interrupt.
`, Options{Processes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetInterruptHandler(1, "svc"); err != nil {
		t.Fatal(err)
	}
	sols, _ := m.Solve("main")
	if _, ok := sols.Next(); !ok {
		t.Fatal("interrupting program failed")
	}
}

func TestParseTerm(t *testing.T) {
	tm, err := ParseTerm("f(X, [1,2])")
	if err != nil || tm.Functor != "f" {
		t.Fatalf("%v %v", tm, err)
	}
	if _, err := ParseTerm("f("); err == nil {
		t.Error("bad term should fail")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := LoadProgram("p :- q(", Options{}); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := LoadProgram("p :- undefined.", Options{}); err == nil {
		t.Error("compile error not surfaced")
	}
	if _, err := LoadBaseline("p :- q(", nil); err == nil {
		t.Error("baseline parse error not surfaced")
	}
}

func TestDisasmAPI(t *testing.T) {
	out, err := DisasmPSI(appendSrc, "app", 3)
	if err != nil || !strings.Contains(out, "app/3") {
		t.Fatalf("DisasmPSI: %v\n%s", err, out)
	}
	dout, err := DisasmBaseline(appendSrc, "app", 3)
	if err != nil || !strings.Contains(dout, "switch_on_term") {
		t.Fatalf("DisasmBaseline: %v\n%s", err, dout)
	}
	if _, err := DisasmPSI(appendSrc, "nosuch", 1); err == nil {
		t.Error("missing predicate should error")
	}
	if _, err := DisasmBaseline(appendSrc, "nosuch", 1); err == nil {
		t.Error("missing predicate should error (baseline)")
	}
	if _, err := DisasmPSI("p :- q(", "p", 0); err == nil {
		t.Error("parse error should surface")
	}
}

func TestFindallThroughAPI(t *testing.T) {
	m, err := LoadProgram("n(3). n(1). n(2).", Options{})
	if err != nil {
		t.Fatal(err)
	}
	sols, err := m.Solve("findall(X, n(X), L)")
	if err != nil {
		t.Fatal(err)
	}
	ans, ok := sols.Next()
	if !ok || ans["L"].String() != "[3,1,2]" {
		t.Fatalf("findall: %v", ans)
	}
}

func TestIndexingOption(t *testing.T) {
	base, err := LoadProgram(appendSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := LoadProgram(appendSrc, Options{Features: Features{Indexing: true}})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Machine{base, idx} {
		sols, _ := m.Solve("app([1,2,3,4,5,6,7,8], [x], R)")
		if ans, ok := sols.Next(); !ok || ans["R"].String() != "[1,2,3,4,5,6,7,8,x]" {
			t.Fatal("append failed")
		}
	}
	if idx.Steps() >= base.Steps() {
		t.Errorf("indexing did not help: %d vs %d steps", idx.Steps(), base.Steps())
	}
}
