package kl0

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/parse"
)

// filterAlive is the reference the maintained alive list must equal: a
// scan of the clause list for clauses not marked dead.
func filterAlive(proc *Proc) []int {
	var out []int
	for i, ci := range proc.Clauses {
		if !ci.Dead {
			out = append(out, i)
		}
	}
	return out
}

// TestAliveListMatchesFilter drives a procedure through a seeded mix of
// retractions (including repeats) and appended clauses and checks after
// every step that Alive, once anything is retracted, lists exactly the
// live clauses in source order.
func TestAliveListMatchesFilter(t *testing.T) {
	prog := compile(t, "f(0). f(1). f(2). f(3). f(4).")
	pi, _ := prog.LookupProc("f", 1)
	proc := prog.Procs[pi]
	rng := rand.New(rand.NewSource(1))
	next := 5
	for step := 0; step < 400; step++ {
		if rng.Intn(3) == 0 {
			cs, err := parse.Clauses("t", fmt.Sprintf("f(%d).", next))
			if err != nil {
				t.Fatal(err)
			}
			if err := prog.AddClauses(cs); err != nil {
				t.Fatal(err)
			}
			next++
		} else {
			prog.RetractClause(pi, rng.Intn(len(proc.Clauses)))
		}
		if proc.NDead() != len(proc.Clauses)-len(filterAlive(proc)) {
			t.Fatalf("step %d: NDead %d, filter finds %d dead", step, proc.NDead(), len(proc.Clauses)-len(filterAlive(proc)))
		}
		if proc.NDead() > 0 && !slices.Equal(proc.Alive(), filterAlive(proc)) {
			t.Fatalf("step %d: Alive %v, filter %v", step, proc.Alive(), filterAlive(proc))
		}
	}
}

// TestCloneIsIndependent checks that a clone keeps every code offset and
// clause, and that mutating it (assert, retract, index build) leaves the
// original untouched.
func TestCloneIsIndependent(t *testing.T) {
	prog := compile(t, "g(a, 1). g(b, 2). g(X, 3) :- h(X). h(c).")
	prog.RetractClause(0, 1)
	gi, _ := prog.LookupProc("g", 2)
	prog.Index(gi)
	code := slices.Clone(prog.Code)
	clauses := slices.Clone(prog.Procs[gi].Clauses)

	c := prog.Clone()
	if !slices.Equal(c.Code, prog.Code) || !slices.Equal(c.Procs[gi].Clauses, clauses) {
		t.Fatal("clone differs from the original")
	}
	if !slices.Equal(c.Procs[gi].Alive(), prog.Procs[gi].Alive()) {
		t.Fatalf("clone alive %v, original %v", c.Procs[gi].Alive(), prog.Procs[gi].Alive())
	}
	if c.Procs[gi].index.Load() != nil {
		t.Fatal("clone carries the original's index")
	}
	if c.Syms != prog.Syms {
		t.Fatal("clone does not share the symbol table")
	}

	cs, err := parse.Clauses("t", "g(d, 4). k(1) :- (h(1) ; g(1, _)).")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddClauses(cs); err != nil {
		t.Fatal(err)
	}
	c.RetractClause(gi, 0)
	c.Index(gi)
	if !slices.Equal(prog.Code, code) || !slices.Equal(prog.Procs[gi].Clauses, clauses) {
		t.Fatal("mutating the clone changed the original")
	}
	if _, ok := prog.LookupProc("k", 1); ok {
		t.Fatal("a predicate added to the clone appeared in the original")
	}
	if got := prog.ProcName(prog.ProcAt(len(code))); got != "<main>" {
		t.Fatalf("original attributes clone code to %s", got)
	}
	if ki, _ := c.LookupProc("k", 1); !strings.HasPrefix(c.ProcName(c.ProcAt(c.Procs[ki].Clauses[0].Start)), "k/1") {
		t.Fatal("clone does not attribute its new code")
	}
}
