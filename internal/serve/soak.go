package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	psi "repro"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/progs"
)

// The chaos soak harness: a self-hosted daemon under sustained seeded
// load with fault injection armed, followed by an invariant audit. The
// point is not throughput (perfbench's serving workloads measure that)
// but survival: after minutes of faults, budget expiries, sheds and
// retries, the daemon must still be the same deterministic machine it
// was at startup. RunSoak asserts that four ways:
//
//   - the traffic adds up (auditTraffic): jobs were served, some ran
//     to a 200 "ok", every class is one the taxonomy knows
//     (engine.Classes() plus the admission pseudo-classes), no request
//     died in transport, and the retry layer's attempts and sheds match
//     what the clients saw;
//   - pooled machines replay clean: a post-soak differential pass
//     serves Table-1 programs and compares the bytes against the psi
//     library's report — fault containment must leave no residue;
//   - no goroutine leaks: after drain and shutdown the process returns
//     to its pre-soak goroutine count (session workers and connection
//     handlers must all wind down);
//   - memory stays bounded: the settled heap must not have grown past
//     the baseline by more than a fixed allowance (the program LRU and
//     machine pools are bounded by design; a soak is how that design
//     gets checked under churn).

// SoakSchema identifies the soak report record.
const SoakSchema = "psi-soak-report/v1"

// soakGoroutineSlack is how many goroutines above the pre-soak baseline
// the settled process may hold (GC workers, finalizer, timer wheels).
const soakGoroutineSlack = 8

// soakHeapSlack is how far past the baseline the settled heap may sit.
const soakHeapSlack = 256 << 20

// SoakOptions configures one soak run. The zero value is a short
// default soak; cmd/soak and the in-suite smoke test set the fields.
type SoakOptions struct {
	// Duration is how long the clients hammer the daemon (default 20s).
	Duration time.Duration
	// Clients is the number of concurrent retrying clients (default 4).
	Clients int
	// Seed drives the job mix and each client's backoff jitter; the
	// whole soak replays for a given seed (default 1).
	Seed uint64
	// Server configures the daemon under soak (zero fields take the
	// serve defaults; Defaults.TimeoutMS defaults to 30s, the wall
	// budget of jobs that carry none, so a runaway session cannot
	// outlive the soak silently).
	Server Config
	// Client tunes the retry discipline of the soak clients.
	Client client.Options
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// SoakReport is the psi-soak-report/v1 record: what the soak saw and
// which invariants, if any, it violated. An empty Violations list means
// the daemon survived.
type SoakReport struct {
	Schema     string `json:"schema"`
	DurationNS int64  `json:"duration_ns"`
	Clients    int    `json:"clients"`
	Seed       uint64 `json:"seed"`

	Served    int64            `json:"served"`
	Unserved  int64            `json:"unserved"`
	Transport int64            `json:"transport_errors"`
	Classes   map[string]int64 `json:"class_counts"`
	Statuses  map[string]int64 `json:"status_counts"`
	Retry     client.Stats     `json:"retry"`

	Expired  int64 `json:"expired"`
	Rejected int64 `json:"rejected"`

	DifferentialPrograms int `json:"differential_programs"`

	GoroutinesBaseline int    `json:"goroutines_baseline"`
	GoroutinesSettled  int    `json:"goroutines_settled"`
	HeapBaselineBytes  uint64 `json:"heap_baseline_bytes"`
	HeapSettledBytes   uint64 `json:"heap_settled_bytes"`

	Violations []string `json:"violations"`
}

// Passed reports whether every invariant held.
func (r *SoakReport) Passed() bool { return len(r.Violations) == 0 }

// JSON renders the record (indented, trailing newline).
func (r *SoakReport) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// violate records one failed invariant.
func (r *SoakReport) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// soakJob draws the next job of the chaos mix: mostly corpus traffic,
// with malformed programs, tiny step budgets, seeded faults rotating
// through every injection site (the fault.Sweep grid), and tiny wall
// budgets that exercise the deadline and queue-expiry paths. The draw
// is a pure function of the evolving state, so a soak replays for a
// given seed.
func soakJob(state *uint64, plans []fault.Plan, corpus []progs.Benchmark) JobSpec {
	*state = splitmix64(*state)
	pick := *state % 15
	*state = splitmix64(*state)
	r := *state
	switch {
	case pick < 10:
		b := corpus[r%uint64(len(corpus))]
		return JobSpec{Program: b.Source, Query: b.Query, Workload: b.Name}
	case pick < 11:
		return malformedPrograms[r%uint64(len(malformedPrograms))]
	case pick < 12:
		return JobSpec{
			Program:  "loop. loop :- loop.\ngo :- loop, fail.\n",
			Workload: "soak-step-limit",
			Steps:    int64(10_000 + r%10_000),
		}
	case pick < 14:
		p := plans[r%uint64(len(plans))]
		b := corpus[0]
		return JobSpec{
			Program:  b.Source,
			Query:    b.Query,
			Workload: "soak-fault-" + p.Site.String(),
			Fault:    p.String(),
		}
	default:
		// A looping program under a tiny wall budget: ends with the
		// deadline class when it reaches a worker in time, or is shed
		// with the expired class when it spends the budget queued.
		return JobSpec{
			Program:   "loop. loop :- loop.\ngo :- loop, fail.\n",
			Workload:  "soak-deadline",
			TimeoutMS: int64(5 + r%40),
		}
	}
}

// soakLibraryReport is the differential oracle: the report the psi
// library (and therefore `psi -json`, minus the host section) produces
// for one benchmark, rendered the same way the daemon renders its
// non-streamed responses.
func soakLibraryReport(b progs.Benchmark) ([]byte, error) {
	m, err := psi.LoadProgram(b.Source, psi.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s: load: %w", b.Name, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sols, err := m.Solve(b.Query)
	if err != nil {
		return nil, fmt.Errorf("%s: solve: %w", b.Name, err)
	}
	var runErr error
	if _, _, err := psi.NextCtx(ctx, sols); err != nil {
		runErr = err
	}
	rep := m.RunReport(b.Name, nil)
	rep.SetTermination(runErr)
	if rep.Fault != nil {
		rep.Fault.Stack = ""
	}
	return rep.JSON()
}

// knownClasses is the set of class names a soaked daemon may legally
// stamp on a response: the engine taxonomy plus the admission
// pseudo-classes.
func knownClasses() map[string]bool {
	known := map[string]bool{ClassSaturated: true, ClassDraining: true}
	for _, c := range engine.Classes() {
		known[c] = true
	}
	return known
}

// RunSoak runs the full chaos soak: baseline, daemon, sustained seeded
// chaos traffic, quiesce, differential audit, drain, shutdown, settle,
// invariant checks. A non-nil error means the harness itself failed to
// set up (no listener); invariant failures land in the report's
// Violations instead, so a failing soak still ships its evidence.
func RunSoak(opts SoakOptions) (*SoakReport, error) {
	if opts.Duration <= 0 {
		opts.Duration = 20 * time.Second
	}
	if opts.Clients <= 0 {
		opts.Clients = 4
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Server.Defaults.TimeoutMS == 0 {
		opts.Server.Defaults.TimeoutMS = 30_000
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	rep := &SoakReport{
		Schema:   SoakSchema,
		Clients:  opts.Clients,
		Seed:     opts.Seed,
		Classes:  map[string]int64{},
		Statuses: map[string]int64{},
	}

	// Pre-soak baseline, after a clean GC so the comparison is between
	// settled states.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.GoroutinesBaseline = runtime.NumGoroutine()
	rep.HeapBaselineBytes = ms.HeapAlloc

	s := New(opts.Server)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("soak: listen: %w", err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln) //nolint:errcheck // closed during settle
	base := "http://" + ln.Addr().String()
	logf("soak: daemon on %s, %d clients for %s (seed %d)", base, opts.Clients, opts.Duration, opts.Seed)

	// One shared transport so idle connections can be torn down before
	// the goroutine audit.
	tr := &http.Transport{}
	copt := opts.Client
	if copt.HTTP == nil {
		copt.HTTP = &http.Client{Timeout: 2 * time.Minute, Transport: tr}
	}

	corpus := progs.Table1()
	plans := fault.Sweep(opts.Seed, 2, 60_000)
	deadline := time.Now().Add(opts.Duration)
	start := time.Now()

	runLoadClients(base, opts.Clients, opts.Seed, copt, rep, func(n int) func() (JobSpec, bool) {
		state := opts.Seed + uint64(n)
		return func() (JobSpec, bool) {
			if !time.Now().Before(deadline) {
				return JobSpec{}, false
			}
			return soakJob(&state, plans, corpus), true
		}
	})
	logf("soak: traffic done: %d served, %d unserved, %d transport", rep.Served, rep.Unserved, rep.Transport)

	// Quiesce: every admitted job out of the daemon before the audit.
	waitUntil(10*time.Second, func() bool {
		st := s.Stats()
		return st.Inflight == 0 && st.Queued == 0
	})

	// Post-soak differential: after all that chaos, pooled machines must
	// still produce byte-identical reports. Runs before drain — a
	// draining daemon refuses jobs.
	audit := corpus
	if len(audit) > 5 {
		audit = audit[:5]
	}
	for _, b := range audit {
		want, err := soakLibraryReport(b)
		if err != nil {
			rep.violate("differential oracle failed: %v", err)
			continue
		}
		got, status, err := postOnce(copt.HTTP, base, JobSpec{Program: b.Source, Query: b.Query, Workload: b.Name})
		switch {
		case err != nil:
			rep.violate("differential %s: post: %v", b.Name, err)
		case status != http.StatusOK:
			rep.violate("differential %s: status %d, want 200", b.Name, status)
		case !bytes.Equal(got, want):
			rep.violate("differential %s: daemon report diverged from the psi library after soak", b.Name)
		default:
			rep.DifferentialPrograms++
		}
	}

	// Drain and shut down; then give the process time to wind down to
	// its baseline.
	s.BeginDrain()
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 10*time.Second)
	srv.Shutdown(shutCtx) //nolint:errcheck // force-closed next
	shutCancel()
	srv.Close()
	tr.CloseIdleConnections()

	settled := waitUntil(10*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= rep.GoroutinesBaseline+soakGoroutineSlack
	})
	rep.GoroutinesSettled = runtime.NumGoroutine()
	runtime.ReadMemStats(&ms)
	rep.HeapSettledBytes = ms.HeapAlloc
	rep.DurationNS = time.Since(start).Nanoseconds()

	st := s.Stats()
	rep.Expired = st.Expired
	rep.Rejected = st.Rejected

	// ---- invariants ------------------------------------------------------

	rep.auditTraffic()
	if !settled {
		rep.violate("goroutine leak: %d settled vs %d baseline (+%d slack)",
			rep.GoroutinesSettled, rep.GoroutinesBaseline, soakGoroutineSlack)
	}
	if rep.HeapSettledBytes > rep.HeapBaselineBytes+soakHeapSlack {
		rep.violate("heap unbounded: settled %d bytes vs baseline %d (+%d allowance)",
			rep.HeapSettledBytes, rep.HeapBaselineBytes, uint64(soakHeapSlack))
	}
	logf("soak: %d violations", len(rep.Violations))
	return rep, nil
}

// runLoadClients is the closed-loop client driver: clients concurrent
// retrying clients against the daemon at base, each sending its next
// job only once the previous one is answered. Client n is built from
// copt with its backoff jitter seeded seed+n, and sends the jobs that
// jobs(n) yields until it yields none. Served responses (error statuses
// included) are tallied into rep by status and class; jobs the retry
// layer abandoned (open breaker, exhausted attempts) count as Unserved,
// and anything that died outside the retry discipline counts as
// Transport. Each client's retry counters are added to rep.Retry.
func runLoadClients(base string, clients int, seed uint64, copt client.Options, rep *SoakReport, jobs func(n int) func() (JobSpec, bool)) {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			o := copt
			o.Seed = seed + uint64(n)
			cl := client.New(base, o)
			next := jobs(n)
			for spec, ok := next(); ok; spec, ok = next() {
				body, err := json.Marshal(&spec)
				if err != nil {
					panic(err) // specs are constructed here; cannot fail
				}
				res, err := cl.Solve(context.Background(), body)
				mu.Lock()
				switch {
				case res != nil:
					rep.Served++
					rep.Statuses[fmt.Sprint(res.Status)]++
					rep.Classes[res.Class]++
				case isShedErr(err):
					rep.Unserved++
				default:
					rep.Transport++
				}
				mu.Unlock()
			}
			st := cl.Stats()
			mu.Lock()
			rep.Retry.Add(st)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
}

// auditTraffic checks the invariants of the traffic a drive tallied:
// the daemon served something, at least one job ran to a 200 "ok",
// nothing died in transport, every class is one the taxonomy knows, the
// retry layer made at least one attempt per served job, and the jobs it
// shed are exactly the unserved ones.
func (r *SoakReport) auditTraffic() {
	if r.Served == 0 {
		r.violate("no jobs served: the soak never exercised the daemon")
	}
	if r.Statuses["200"] == 0 || r.Classes["ok"] == 0 {
		r.violate("no 200 \"ok\" responses: statuses %v, classes %v", r.Statuses, r.Classes)
	}
	if r.Transport != 0 {
		r.violate("%d requests died in transport; a soaked daemon must answer or shed, never vanish", r.Transport)
	}
	known := knownClasses()
	for class, n := range r.Classes {
		if !known[class] {
			r.violate("%d responses carried unknown class %q", n, class)
		}
	}
	if r.Retry.Attempts < r.Served {
		r.violate("retry accounting skew: %d attempts for %d served jobs", r.Retry.Attempts, r.Served)
	}
	if r.Retry.Shed != r.Unserved {
		r.violate("retry accounting skew: client shed %d, harness saw %d unserved", r.Retry.Shed, r.Unserved)
	}
}

// isShedErr reports whether the client abandoned the job deliberately
// (open breaker, exhausted attempts) as opposed to dying in transport.
func isShedErr(err error) bool {
	return errors.Is(err, client.ErrBreakerOpen) || errors.Is(err, client.ErrAttemptsExhausted)
}

// postOnce sends one plain (non-retrying) job and returns the body and
// status — the differential audit wants the daemon's raw answer.
func postOnce(hc *http.Client, base string, spec JobSpec) ([]byte, int, error) {
	body, err := json.Marshal(&spec)
	if err != nil {
		return nil, 0, err
	}
	resp, err := hc.Post(base+client.SolvePath, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	return b, resp.StatusCode, nil
}

// waitUntil polls cond every few milliseconds until it holds or the
// budget runs out, reporting whether it held.
func waitUntil(budget time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(budget)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}
