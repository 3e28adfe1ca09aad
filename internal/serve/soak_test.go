package serve

import (
	"context"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/fault"
	"repro/internal/progs"
)

// TestSoakShort is the in-suite slice of the chaos soak: a couple of
// seconds of seeded fault-mixed traffic against a self-hosted daemon,
// then the full invariant audit (known classes, clean differential
// replay, no goroutine leak, bounded heap). `make serve` runs it under
// the race detector; `make soak` runs the longer cmd/soak version.
func TestSoakShort(t *testing.T) {
	d := 2 * time.Second
	if testing.Short() {
		d = 800 * time.Millisecond
	}
	rep, err := RunSoak(SoakOptions{
		Duration: d,
		Clients:  3,
		Seed:     1,
		Server:   Config{Workers: 2, Queue: 8},
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatalf("soak harness failed to start: %v", err)
	}
	if !rep.Passed() {
		b, _ := rep.JSON()
		t.Fatalf("soak violated %d invariants:\n%s", len(rep.Violations), b)
	}
	if rep.Served == 0 {
		t.Fatal("soak served nothing")
	}
	if rep.DifferentialPrograms == 0 {
		t.Error("post-soak differential audited nothing")
	}
	// The chaos mix must actually exercise the chaos paths. A raced
	// -short pass may legitimately serve only a handful of jobs, so the
	// fault-coverage check applies only once the mix had a real chance
	// to draw one (fault plans are ~2/15 of the mix).
	if rep.Classes["ok"] == 0 {
		t.Errorf("soak mix produced no %q responses (classes: %v)", "ok", rep.Classes)
	}
	if rep.Served >= 30 && rep.Classes["fault"] == 0 {
		t.Errorf("soak served %d jobs but no %q responses (classes: %v)", rep.Served, "fault", rep.Classes)
	}
}

// TestSoakJobDeterminism pins the replay contract: the same seed draws
// the same chaos job sequence.
func TestSoakJobDeterminism(t *testing.T) {
	plans := fault.Sweep(1, 2, 60_000)
	corpus := progs.Table1()
	draw := func(seed uint64) []JobSpec {
		state := seed
		out := make([]JobSpec, 0, 64)
		for i := 0; i < 64; i++ {
			out = append(out, soakJob(&state, plans, corpus))
		}
		return out
	}
	a, b := draw(9), draw(9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	diverged := false
	for i, s := range draw(10) {
		if s != a[i] {
			diverged = true
		}
	}
	if !diverged {
		t.Error("different seeds drew identical sequences")
	}
	// Every drawn spec must validate: the soak must never 400 itself.
	for i := range a {
		s := a[i]
		s.applyDefaults(Defaults{})
		if err := s.validate(); err != nil {
			t.Errorf("soak job %d invalid: %v", i, err)
		}
	}
}

// mixJobs is a job source for runLoadClients: client n sends
// DefaultMix().Jobs(1+n, per).
func mixJobs(per int) func(n int) func() (JobSpec, bool) {
	return func(n int) func() (JobSpec, bool) {
		jobs := DefaultMix().Jobs(1+uint64(n), per)
		return func() (JobSpec, bool) {
			if len(jobs) == 0 {
				return JobSpec{}, false
			}
			j := jobs[0]
			jobs = jobs[1:]
			return j, true
		}
	}
}

func newTraffic() *SoakReport {
	return &SoakReport{Classes: map[string]int64{}, Statuses: map[string]int64{}}
}

// TestRunLoadClientRetriesAgainstDrainingDaemon pins the retry wiring
// of the client driver deterministically: every response from a
// draining daemon is a retryable 503, so each job burns its full
// attempt budget and is shed.
func TestRunLoadClientRetriesAgainstDrainingDaemon(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.BeginDrain()
	rep := newTraffic()
	runLoadClients(ts.URL, 2, 1, client.Options{
		HTTP:             ts.Client(),
		MaxAttempts:      3,
		BreakerThreshold: -1, // isolate the attempt budget from the breaker
		Sleep:            func(context.Context, time.Duration) error { return nil },
	}, rep, mixJobs(3))
	if rep.Served != 0 || rep.Unserved != 6 {
		t.Errorf("draining load served %d / unserved %d, want 0 / 6", rep.Served, rep.Unserved)
	}
	if rep.Retry.Attempts != 18 || rep.Retry.Retries != 12 || rep.Retry.Shed != 6 {
		t.Errorf("retry block = %+v, want 18 attempts / 12 retries / 6 shed", rep.Retry)
	}
	if rep.Retry.RetryAfterHonored == 0 {
		t.Error("draining 503s carry Retry-After; none honored")
	}
}

// TestRunLoadClientBreakerShedsFast pins the breaker wiring of the
// client driver: once the threshold trips against a dead-for-new-work
// daemon, remaining jobs shed fast without further attempts.
func TestRunLoadClientBreakerShedsFast(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.BeginDrain()
	rep := newTraffic()
	runLoadClients(ts.URL, 1, 1, client.Options{
		HTTP:             ts.Client(),
		MaxAttempts:      1,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute, // never half-opens within the test
		Sleep:            func(context.Context, time.Duration) error { return nil },
	}, rep, mixJobs(5))
	if rep.Unserved != 5 {
		t.Errorf("unserved = %d, want all 5 jobs shed", rep.Unserved)
	}
	if rep.Retry.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (breaker stopped the rest)", rep.Retry.Attempts)
	}
	if rep.Retry.BreakerOpens != 1 {
		t.Errorf("breaker opens = %d, want 1", rep.Retry.BreakerOpens)
	}
}

// TestAuditTraffic runs the traffic audit on a consistent tally and on
// one mutation per invariant; each mutation must be flagged.
func TestAuditTraffic(t *testing.T) {
	good := func() *SoakReport {
		return &SoakReport{
			Served:   10,
			Unserved: 1,
			Statuses: map[string]int64{"200": 9, "422": 1},
			Classes:  map[string]int64{"ok": 9, "malformed": 1},
			Retry:    client.Stats{Attempts: 13, Retries: 3, Shed: 1},
		}
	}
	r := good()
	r.auditTraffic()
	if !r.Passed() {
		t.Fatalf("consistent traffic flagged: %v", r.Violations)
	}
	bad := map[string]func(*SoakReport){
		"nothing served":    func(r *SoakReport) { r.Served = 0 },
		"transport death":   func(r *SoakReport) { r.Transport = 1 },
		"no statuses":       func(r *SoakReport) { r.Statuses = map[string]int64{} },
		"no 200":            func(r *SoakReport) { r.Statuses = map[string]int64{"500": 10} },
		"no ok class":       func(r *SoakReport) { r.Classes = map[string]int64{"fault": 9, "malformed": 1} },
		"unknown class":     func(r *SoakReport) { r.Classes["bogus"] = 1 },
		"attempts < served": func(r *SoakReport) { r.Retry.Attempts = 3 },
		"shed != unserved":  func(r *SoakReport) { r.Unserved = 2 },
	}
	for name, mutate := range bad {
		r := good()
		mutate(r)
		r.auditTraffic()
		if r.Passed() {
			t.Errorf("%s: accepted", name)
		}
	}
}
