package harness

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/progs"
)

// TestDynamicJobLeavesImageUnchanged opens an assertz/retract job on one
// shared compiled program repeatedly, in sequence and on two goroutines
// (run it under -race): every run must find the solution and render the
// same report, and the shared image must keep its single clause.
func TestDynamicJobLeavesImageUnchanged(t *testing.T) {
	c, err := CompileKeyed("dynamic-job-test", progs.Benchmark{
		Name: "dynamic", Source: "q(0).\n", Query: "assertz(q(1)), retract(q(0)), q(X)",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer Evict("dynamic-job-test")
	qi, _ := c.Prog.LookupProc("q", 1)
	codeLen := len(c.Prog.Code)

	run := func() (string, error) {
		l, err := c.Open(core.Config{MaxSteps: core.DefaultMaxSteps})
		if err != nil {
			return "", err
		}
		defer l.Release()
		st, err := l.Session.Next(context.Background())
		if st != engine.Solution {
			return "", err
		}
		if x := l.Session.Bindings()["X"].String(); x != "1" {
			t.Errorf("X = %s, want 1", x)
		}
		rep, err := obs.NewRunReport(l.Machine, "dynamic", nil).JSON()
		return string(rep), err
	}
	want, err := run()
	if err != nil || want == "" {
		t.Fatalf("first run found no solution: %v", err)
	}
	for i := 0; i < 2; i++ {
		if got, err := run(); got != want {
			t.Fatalf("rerun %d: report differs (err %v)\nfirst:\n%s\nrerun:\n%s", i, err, want, got)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := run(); got != want {
				t.Errorf("concurrent run: report differs (err %v)", err)
			}
		}()
	}
	wg.Wait()
	if n, dead := len(c.Prog.Procs[qi].Clauses), c.Prog.Procs[qi].NDead(); n != 1 || dead != 0 || len(c.Prog.Code) != codeLen {
		t.Fatalf("shared image mutated: q/1 has %d clauses (%d dead), code %d words (was %d)", n, dead, len(c.Prog.Code), codeLen)
	}
}
