package dec10

import (
	"context"
	"errors"
	"fmt"
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
nested :- findall(X, loop, _).
count(0) :- !.
count(N) :- M is N - 1, count(M).
counts :- findall(N, (app(_, [N|_], [20000, 30000, 40000]), count(N)), _).
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

// TestPolledExecutionMatchesUnpolled runs queries under a live
// cancelable context, which arms the machine's context poll, and checks
// the answer stream and the unit and call counts are identical to a run
// under Next(nil), which arms none. The counts query runs its work
// inside findall/3 across several poll points.
func TestPolledExecutionMatchesUnpolled(t *testing.T) {
	for _, query := range []string{"app(X, Y, [1,2,3,4])", "counts"} {
		prog, q := compileSession(t, query)
		run := func(ctx context.Context) ([]string, [2]int64) {
			m := New(prog.Snapshot(), Config{MaxUnits: 100_000_000})
			sess := NewSession(m, q)
			var answers []string
			for {
				st, err := sess.Next(ctx)
				if err != nil {
					t.Fatalf("%s: %v", query, err)
				}
				if st != engine.Solution {
					break
				}
				answers = append(answers, fmt.Sprint(sess.Bindings()))
			}
			return answers, [2]int64{m.Units(), m.Calls()}
		}
		wantAns, want := run(nil)
		ctx, cancel := context.WithCancel(context.Background())
		gotAns, got := run(ctx)
		cancel()
		if !reflect.DeepEqual(gotAns, wantAns) {
			t.Errorf("%s: polled answers %v, unpolled %v", query, gotAns, wantAns)
		}
		if got != want {
			t.Errorf("%s: polled run charged %v units and calls, unpolled %v", query, got, want)
		}
		if query == "counts" && want[0] < 4*engine.CheckEvery {
			t.Errorf("%s: %d units cross fewer than four poll points", query, want[0])
		}
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
	for name, query := range map[string]string{"deadline": "loop", "deadline-findall": "nested"} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			// The unit limit (about 2 s of host time) only ends a run
			// whose poll never fires.
			st, err := newSess(t, query, 500_000_000).Next(ctx)
			if st != engine.Failed || !errors.Is(err, engine.ErrDeadline) {
				t.Fatalf("status %v err %v, want Failed/ErrDeadline", st, err)
			}
		})
	}
}
