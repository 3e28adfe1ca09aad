package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/kl0"
	"repro/internal/micro"
	"repro/internal/parse"
)

// factScan compiles an n-clause fact base f(0, 0) ... f(n-1, 2(n-1))
// and a query for its last key, which without indexing retries every
// clause before the last one matches.
func factScan(t *testing.T, n int) (*kl0.Program, *kl0.Query) {
	t.Helper()
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "f(%d, %d).\n", i, 2*i)
	}
	cs, err := parse.Clauses("facts", b.String())
	if err != nil {
		t.Fatal(err)
	}
	prog := kl0.NewProgram(nil)
	if err := prog.AddClauses(cs); err != nil {
		t.Fatal(err)
	}
	g, err := parse.Term(fmt.Sprintf("f(%d, V)", n-1))
	if err != nil {
		t.Fatal(err)
	}
	q, err := prog.CompileQuery(g)
	if err != nil {
		t.Fatal(err)
	}
	return prog, q
}

// TestClauseRetryAllocations guards the clause-retry path against
// per-retry allocation: scanning to the last key of a 3,000-clause fact
// base must allocate no more than scanning a 300-clause one, plus a
// small constant, also when a retracted clause sends dispatch through
// the procedure's alive list. The answer and step count must match a
// per-cycle reference tap.
func TestClauseRetryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const slack = 8
	cases := []struct {
		n       int
		retract bool
	}{{300, false}, {3000, false}, {3000, true}}
	allocs := make([]float64, len(cases))
	for c, tc := range cases {
		n := tc.n
		prog, q := factScan(t, n)
		if tc.retract {
			prog.RetractClause(0, 0)
		}
		cfg := core.Config{MaxSteps: core.DefaultMaxSteps}

		ref := core.New(prog, core.Config{MaxSteps: core.DefaultMaxSteps, Trace: &micro.Stats{}})
		refSols := ref.SolveQuery(q)
		want, ok := refSols.Next()
		if !ok {
			t.Fatalf("n=%d: reference found no answer: %v", n, refSols.Err())
		}
		if got, wantV := want["V"].String(), fmt.Sprint(2*(n-1)); got != wantV {
			t.Fatalf("n=%d: V = %s, want %s", n, got, wantV)
		}

		m := core.New(prog, cfg)
		sols := m.SolveQuery(q)
		got, ok := sols.Next()
		if !ok || got["V"].String() != want["V"].String() {
			t.Fatalf("n=%d: answer %v, reference %v (err %v)", n, got, want, sols.Err())
		}
		if m.Stats().Steps != ref.Stats().Steps {
			t.Fatalf("n=%d: %d steps, per-cycle reference %d", n, m.Stats().Steps, ref.Stats().Steps)
		}

		allocs[c] = testing.AllocsPerRun(5, func() {
			if !m.Reset(prog, cfg) {
				t.Fatal("Reset refused")
			}
			if st := m.SolveQuery(q).Run(nil); st != engine.Solution {
				t.Fatalf("n=%d: status %v", n, st)
			}
		})
	}
	t.Logf("allocations per scan: %v for %+v", allocs, cases)
	for c := 1; c < len(cases); c++ {
		if allocs[c] > allocs[0]+slack {
			t.Errorf("last-key scan allocates %.0f for %+v vs %.0f at 300 clauses: clause retry allocates per candidate", allocs[c], cases[c], allocs[0])
		}
	}
}
