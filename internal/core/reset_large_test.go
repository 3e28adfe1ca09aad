package core_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/word"
)

// TestResetAfterLargeProgramMatchesFresh pins the pooled-machine
// contract behind memory Reset clearing only each area's written
// prefix: a machine that ran a 3,000-clause program — a heap and stacks
// far larger than a small job's — is Reset for nreverse, and that run
// must equal one on a fresh machine: statistics, run report, area high
// water marks and physical page count.
func TestResetAfterLargeProgramMatchesFresh(t *testing.T) {
	var src strings.Builder
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&src, "fact(%d, item_%d, [%d, %d, %d]).\n", i, i, i, i+1, i+2)
	}
	src.WriteString("count([], N, N).\ncount([_|T], N0, N) :- N1 is N0 + 1, count(T, N1, N).\n")
	src.WriteString("go :- findall(L, fact(_, _, L), Ls), count(Ls, 0, 3000).\n")
	big, err := harness.Compile(progs.Benchmark{Name: "reset-large-3000", Source: src.String(), Query: "go"})
	if err != nil {
		t.Fatal(err)
	}
	small, err := harness.Compile(progs.NReverse)
	if err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, m *core.Machine, q *harness.Compiled) (string, []byte) {
		t.Helper()
		sols := m.SolveQuery(q.Query)
		if _, ok := sols.Next(); !ok {
			t.Fatalf("run failed: %v", sols.Err())
		}
		rep, err := obs.NewRunReport(m, "t", nil).JSON()
		if err != nil {
			t.Fatal(err)
		}
		var areas strings.Builder
		for a := word.AreaID(0); int(a) < word.NumAreas(1); a++ {
			fmt.Fprintf(&areas, "%d ", m.AreaHighWater(a))
		}
		return fmt.Sprintf("%+v areas %s pages %d", *m.Stats(), areas.String(), m.PhysicalPages()), rep
	}
	pooled := core.New(big.Prog, core.Config{})
	run(t, pooled, big)
	if pooled.AreaHighWater(word.AreaHeap) < 10*len(small.Prog.Code) {
		t.Fatalf("large program's heap high water %d is not large", pooled.AreaHighWater(word.AreaHeap))
	}
	if !pooled.Reset(small.Prog, core.Config{}) {
		t.Fatal("Reset refused")
	}
	got, gotRep := run(t, pooled, small)
	want, wantRep := run(t, core.New(small.Prog, core.Config{}), small)
	if got != want {
		t.Errorf("after the large program + Reset:\n%s\nfresh machine:\n%s", got, want)
	}
	if !bytes.Equal(gotRep, wantRep) {
		t.Errorf("report after the large program + Reset differs from a fresh machine's:\n%s\n--- fresh\n%s", gotRep, wantRep)
	}
}
