package core

import (
	stdcontext "context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/kl0"
	"repro/internal/micro"
	"repro/internal/parse"
)

const sessionSrc = `
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
range(N, N, [N]) :- !.
range(I, N, [I|R]) :- I < N, J is I + 1, range(J, N, R).
go :- range(1, 30, L), nrev(L, _).
boom :- X is 1 // 0, X = X.
loop :- loop.
nested :- findall(X, loop, _).
lists :- findall(L, (app(_, [N|_], [30,35,40,45,50]), range(1, N, R), nrev(R, L)), Ls), length(Ls, 5).
length([], 0).
length([_|T], N) :- length(T, M), N is M + 1.
`

func compileQuery(t *testing.T, prog *kl0.Program, query string) *kl0.Query {
	t.Helper()
	g, err := parse.Term(query)
	if err != nil {
		t.Fatal(err)
	}
	q, err := prog.CompileQuery(g)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func sessionProg(t *testing.T) *kl0.Program {
	t.Helper()
	prog := kl0.NewProgram(nil)
	cs, err := parse.Clauses("session", sessionSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.AddClauses(cs); err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestPolledExecutionMatchesUnpolled runs queries under a live
// cancelable context, which arms the machine's context poll, and checks
// the answer stream and the full statistics are identical to a run under
// Next(nil), which arms none. The lists query runs its work inside
// findall/3 across several poll points.
func TestPolledExecutionMatchesUnpolled(t *testing.T) {
	prog := sessionProg(t)
	for _, query := range []string{"app(X, Y, [1,2,3,4])", "lists"} {
		q := compileQuery(t, prog, query)
		run := func(ctx stdcontext.Context) ([]string, micro.Stats) {
			m := New(prog, Config{MaxSteps: 10_000_000})
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
			return answers, *m.Stats()
		}
		wantAns, want := run(nil)
		ctx, cancel := stdcontext.WithCancel(stdcontext.Background())
		gotAns, got := run(ctx)
		cancel()
		if !reflect.DeepEqual(gotAns, wantAns) {
			t.Errorf("%s: polled answers %v, unpolled %v", query, gotAns, wantAns)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: polled statistics differ from unpolled:\ngot  %+v\nwant %+v", query, got, want)
		}
		if query == "lists" && want.Steps < 4*engine.CheckEvery {
			t.Errorf("%s: %d steps cross fewer than four poll points", query, want.Steps)
		}
	}
}

// TestCancelStopsAtNextPoll cancels a run from a heartbeat inside
// findall/3 and checks the run stops exactly at the first poll at or
// after the heartbeat: polls fall every engine.CheckEvery steps from the
// start of the run, and a poll due at the heartbeat's own step sees the
// cancel.
func TestCancelStopsAtNextPoll(t *testing.T) {
	prog := sessionProg(t)
	q := compileQuery(t, prog, "nested")
	for _, every := range []int64{100_000, 2 * engine.CheckEvery, 2*engine.CheckEvery + 1} {
		ctx, cancel := stdcontext.WithCancel(stdcontext.Background())
		m := New(prog, Config{MaxSteps: 1_000_000, Progress: func(Heartbeat) { cancel() }, ProgressEvery: every})
		st, err := NewSession(m, q).Next(ctx)
		cancel()
		if st != engine.Failed || !errors.Is(err, engine.ErrCanceled) {
			t.Fatalf("heartbeat every %d: status %v err %v, want Failed/ErrCanceled", every, st, err)
		}
		want := (every + engine.CheckEvery - 1) / engine.CheckEvery * engine.CheckEvery
		if got := m.Stats().Steps; got != want {
			t.Errorf("heartbeat at step %d: run stopped at step %d, want the poll at %d", every, got, want)
		}
	}
}

// TestSessionErrorClasses checks each abnormal termination carries its
// engine error class.
func TestSessionErrorClasses(t *testing.T) {
	prog := sessionProg(t)

	t.Run("step-limit", func(t *testing.T) {
		m := New(prog, Config{MaxSteps: 1000})
		sess := NewSession(m, compileQuery(t, prog, "go"))
		st, err := sess.Next(nil)
		if st != engine.Failed || !errors.Is(err, engine.ErrStepLimit) {
			t.Fatalf("status %v err %v, want Failed/ErrStepLimit", st, err)
		}
	})
	t.Run("malformed", func(t *testing.T) {
		m := New(prog, Config{MaxSteps: 1_000_000})
		sess := NewSession(m, compileQuery(t, prog, "boom"))
		st, err := sess.Next(nil)
		if st != engine.Failed || !errors.Is(err, engine.ErrMalformed) {
			t.Fatalf("status %v err %v, want Failed/ErrMalformed", st, err)
		}
	})
	for name, query := range map[string]string{"deadline": "loop", "deadline-findall": "nested"} {
		t.Run(name, func(t *testing.T) {
			// The step limit (about 2 s of host time) only ends a run
			// whose poll never fires.
			m := New(prog, Config{MaxSteps: 500_000_000})
			sess := NewSession(m, compileQuery(t, prog, query))
			ctx, cancel := stdcontext.WithTimeout(stdcontext.Background(), 20*time.Millisecond)
			defer cancel()
			st, err := sess.Next(ctx)
			if st != engine.Failed || !errors.Is(err, engine.ErrDeadline) {
				t.Fatalf("status %v err %v, want Failed/ErrDeadline", st, err)
			}
		})
	}
	t.Run("canceled", func(t *testing.T) {
		m := New(prog, Config{MaxSteps: 500_000_000})
		sess := NewSession(m, compileQuery(t, prog, "loop"))
		ctx, cancel := stdcontext.WithCancel(stdcontext.Background())
		cancel()
		st, err := sess.Next(ctx)
		if st != engine.Failed || !errors.Is(err, engine.ErrCanceled) {
			t.Fatalf("status %v err %v, want Failed/ErrCanceled", st, err)
		}
	})
}

// TestResetAfterAbortedRun is the pool-poisoning regression test: a
// machine whose run was aborted (step limit, deadline, malformed
// arithmetic) and then Reset must behave byte-identically to a fresh
// machine — same answers, same cycle counts, same statistics.
func TestResetAfterAbortedRun(t *testing.T) {
	prog := sessionProg(t)
	goQ := compileQuery(t, prog, "go")
	cfg := Config{MaxSteps: 100_000_000}

	// The reference: a machine that never saw an abort.
	fresh := New(prog, cfg)
	fs := fresh.SolveQuery(goQ)
	if _, ok := fs.Next(); !ok {
		t.Fatalf("fresh run failed: %v", fs.Err())
	}
	want := *fresh.Stats()

	// deadline aborts query at its wall budget; the step limit (about
	// 2 s of host time) only ends a run whose poll never fires.
	deadline := func(query string) func(t *testing.T, m *Machine) {
		return func(t *testing.T, m *Machine) {
			if !m.Reset(prog, Config{MaxSteps: 500_000_000}) {
				t.Fatal("Reset refused")
			}
			sess := NewSession(m, compileQuery(t, prog, query))
			ctx, cancel := stdcontext.WithTimeout(stdcontext.Background(), 10*time.Millisecond)
			defer cancel()
			if _, err := sess.Next(ctx); !errors.Is(err, engine.ErrDeadline) {
				t.Fatalf("want deadline abort, got %v", err)
			}
		}
	}
	poison := map[string]func(t *testing.T, m *Machine){
		"step-limit": func(t *testing.T, m *Machine) {
			if !m.Reset(prog, Config{MaxSteps: 1000}) {
				t.Fatal("Reset refused")
			}
			s := m.SolveQuery(goQ)
			if _, ok := s.Next(); ok || !errors.Is(s.Err(), engine.ErrStepLimit) {
				t.Fatalf("want step-limit abort, got ok=%v err=%v", ok, s.Err())
			}
		},
		"deadline":         deadline("loop"),
		"deadline-findall": deadline("nested"),
		"malformed": func(t *testing.T, m *Machine) {
			if !m.Reset(prog, cfg) {
				t.Fatal("Reset refused")
			}
			s := m.SolveQuery(compileQuery(t, prog, "boom"))
			if _, ok := s.Next(); ok || !errors.Is(s.Err(), engine.ErrMalformed) {
				t.Fatalf("want malformed abort, got ok=%v err=%v", ok, s.Err())
			}
		},
	}
	for name, abort := range poison {
		t.Run(name, func(t *testing.T) {
			m := New(prog, cfg)
			abort(t, m)
			if !m.Reset(prog, cfg) {
				t.Fatal("Reset refused after abort")
			}
			s := m.SolveQuery(goQ)
			if _, ok := s.Next(); !ok {
				t.Fatalf("post-reset run failed: %v", s.Err())
			}
			if got := *m.Stats(); !reflect.DeepEqual(got, want) {
				t.Errorf("stats after %s abort + Reset differ from a fresh machine:\ngot  %+v\nwant %+v", name, got, want)
			}
		})
	}
}
