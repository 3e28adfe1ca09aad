package dec10

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/parse"
)

const sessionSrc = `
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
loop :- loop.
boom :- X is 1 // 0, X = X.
`

// compileSession compiles sessionSrc and query the way the harness
// does: parse, AddClauses, then a query handle.
func compileSession(t *testing.T, query string) (*Program, *Query) {
	t.Helper()
	prog := NewProgram(nil)
	cs, err := parse.Clauses("session", sessionSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.AddClauses(cs); err != nil {
		t.Fatal(err)
	}
	g, err := parse.Term(query)
	if err != nil {
		t.Fatal(err)
	}
	q, err := prog.CompileQueryHandle(g)
	if err != nil {
		t.Fatal(err)
	}
	return prog, q
}

// TestSteppedExecutionMatchesUnbounded slices one query into small unit
// budgets and checks the answer stream and unit count are identical to
// an unbounded run.
func TestSteppedExecutionMatchesUnbounded(t *testing.T) {
	prog, q := compileSession(t, "app(X, Y, [1,2,3,4])")

	whole := New(prog.Snapshot(), Config{MaxUnits: 1_000_000})
	ws := whole.SolveQuery(q)
	var wantAns []string
	for {
		ans, ok := ws.Next()
		if !ok {
			break
		}
		wantAns = append(wantAns, ans["X"].String()+"/"+ans["Y"].String())
	}
	if ws.Err() != nil {
		t.Fatal(ws.Err())
	}

	sliced := New(prog.Snapshot(), Config{MaxUnits: 1_000_000})
	ss := sliced.SolveQuery(q)
	var gotAns []string
	yields := 0
	for {
		st := ss.Step(5) // tiny budget: forces many yields per answer
		switch st {
		case engine.Yielded:
			yields++
			continue
		case engine.Solution:
			ans := ss.Bindings()
			gotAns = append(gotAns, ans["X"].String()+"/"+ans["Y"].String())
			continue
		case engine.Exhausted:
		case engine.Failed:
			t.Fatal(ss.Err())
		}
		break
	}
	if !reflect.DeepEqual(gotAns, wantAns) {
		t.Fatalf("stepped answers %v, unbounded %v", gotAns, wantAns)
	}
	if yields == 0 {
		t.Fatal("budget of 5 units never yielded")
	}
	if g, w := sliced.Units(), whole.Units(); g != w {
		t.Fatalf("stepped run charged %d units, unbounded %d", g, w)
	}
}

// TestSessionErrorClasses checks each abnormal termination carries its
// engine error class on the baseline too.
func TestSessionErrorClasses(t *testing.T) {
	newSess := func(t *testing.T, query string, units int64) engine.Session {
		t.Helper()
		prog, q := compileSession(t, query)
		return NewSession(New(prog.Snapshot(), Config{MaxUnits: units}), q)
	}
	t.Run("step-limit", func(t *testing.T) {
		st, err := newSess(t, "loop", 1000).Next(nil)
		if st != engine.Failed || !errors.Is(err, engine.ErrStepLimit) {
			t.Fatalf("status %v err %v, want Failed/ErrStepLimit", st, err)
		}
	})
	t.Run("malformed", func(t *testing.T) {
		st, err := newSess(t, "boom", 0).Next(nil)
		if st != engine.Failed || !errors.Is(err, engine.ErrMalformed) {
			t.Fatalf("status %v err %v, want Failed/ErrMalformed", st, err)
		}
	})
	t.Run("deadline", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		st, err := newSess(t, "loop", 0).Next(ctx)
		if st != engine.Failed || !errors.Is(err, engine.ErrDeadline) {
			t.Fatalf("status %v err %v, want Failed/ErrDeadline", st, err)
		}
	})
}
