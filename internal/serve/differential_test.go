package serve

import (
	"context"
	"net/http"
	"sync"
	"testing"

	psi "repro"
	"repro/internal/fault"
	"repro/internal/progs"
)

// The differential contract: for any job, the daemon's non-streamed
// response body is byte-identical to the report the psi library (and
// therefore `psi -json`, minus the non-deterministic host section)
// produces for the same program, query and configuration. This is what
// makes the long-running service trustworthy — pooled machines and the
// compiled-program cache are invisible in the output.

// libraryReport runs one benchmark exactly the way `psi -json` does —
// fresh machine, first solution, cancelable context (so the run is
// sliced identically to the daemon's) — and renders the report with the
// host section off.
func libraryReport(t *testing.T, b progs.Benchmark, opts psi.Options) []byte {
	t.Helper()
	m, err := psi.LoadProgram(b.Source, opts)
	if err != nil {
		t.Fatalf("%s: load: %v", b.Name, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sols, err := m.Solve(b.Query)
	if err != nil {
		t.Fatalf("%s: solve: %v", b.Name, err)
	}
	var runErr error
	if _, _, err := psi.NextCtx(ctx, sols); err != nil {
		runErr = err
	}
	rep := m.RunReport(b.Name, nil)
	rep.SetTermination(runErr)
	if rep.Fault != nil {
		rep.Fault.Stack = "" // the daemon strips stacks for determinism
	}
	out, err := rep.JSON()
	if err != nil {
		t.Fatalf("%s: render: %v", b.Name, err)
	}
	return out
}

// TestDifferentialTable1 serves the whole Table-1 corpus concurrently
// through the daemon and checks every response body equals the psi
// library's report byte for byte.
func TestDifferentialTable1(t *testing.T) {
	corpus := progs.Table1()
	if testing.Short() {
		corpus = corpus[:5]
	}
	// Explicit capacity: the point is concurrent service, not
	// backpressure, so the queue must absorb the whole fan-out even on a
	// small GOMAXPROCS box.
	_, ts := newTestServer(t, Config{Workers: 4, Queue: 2 * len(corpus)})

	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for _, b := range corpus {
		wg.Add(1)
		go func(b progs.Benchmark) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			want := libraryReport(t, b, psi.Options{})
			resp, got := postJob(t, ts, JobSpec{
				Program:  b.Source,
				Query:    b.Query,
				Workload: b.Name,
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d\n%s", b.Name, resp.StatusCode, got)
				return
			}
			if string(got) != string(want) {
				t.Errorf("%s: daemon report differs from psi -json\ndaemon:\n%s\nlibrary:\n%s",
					b.Name, got, want)
			}
		}(b)
	}
	wg.Wait()
}

// TestDifferentialFast checks that the accepted "fast" engine field
// keeps the identity.
func TestDifferentialFast(t *testing.T) {
	b := progs.Table1()[0] // nreverse
	want := libraryReport(t, b, psi.Options{Fast: true})
	_, ts := newTestServer(t, Config{})
	resp, got := postJob(t, ts, JobSpec{
		Program: b.Source, Query: b.Query, Workload: b.Name, Engine: "fast",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d\n%s", resp.StatusCode, got)
	}
	if string(got) != string(want) {
		t.Errorf("engine=fast daemon report differs from library:\n%s\n--\n%s", got, want)
	}
}

// TestDifferentialFault checks the forensic path too: a seeded injected
// fault yields the same contained report (flight dump included) whether
// the job ran under the daemon or the library.
func TestDifferentialFault(t *testing.T) {
	b := progs.Table1()[0]
	const faultSpec = "site=mem,after=20000,seed=7"
	plan, err := fault.Parse(faultSpec)
	if err != nil {
		t.Fatal(err)
	}
	want := libraryReport(t, progs.Benchmark{
		Name: "faulty-" + b.Name, Source: b.Source, Query: b.Query,
	}, psi.Options{Fault: plan})

	_, ts := newTestServer(t, Config{})
	resp, got := postJob(t, ts, JobSpec{
		Program:  b.Source,
		Query:    b.Query,
		Workload: "faulty-" + b.Name,
		Fault:    faultSpec,
	})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("fault status %d, want 500\n%s", resp.StatusCode, got)
	}
	if string(got) != string(want) {
		t.Errorf("fault report differs:\ndaemon:\n%s\nlibrary:\n%s", got, want)
	}
}

// TestDifferentialDynamic serves a job that asserts and retracts against
// one cached compiled program, sequentially and from concurrent clients:
// every response must equal the library's report for a fresh program,
// because a dynamic job mutates a private copy, never the cached image.
func TestDifferentialDynamic(t *testing.T) {
	b := progs.Benchmark{Name: "dynamic", Source: "q(0).\n", Query: "assertz(q(1)), retract(q(0)), q(X)"}
	want := libraryReport(t, b, psi.Options{})
	_, ts := newTestServer(t, Config{Workers: 2})
	spec := JobSpec{Program: b.Source, Query: b.Query, Workload: b.Name}
	check := func(what string) {
		resp, got := postJob(t, ts, spec)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d\n%s", what, resp.StatusCode, got)
		} else if string(got) != string(want) {
			t.Errorf("%s: daemon report differs from psi -json\ndaemon:\n%s\nlibrary:\n%s", what, got, want)
		}
	}
	check("first run")
	check("second run")
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check("concurrent run")
		}()
	}
	wg.Wait()
}
