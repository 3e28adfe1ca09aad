package psi

// Regression tests for the derived accounting mode: AccountingMode is
// "exact" exactly while a per-cycle tap is armed — a COLLECT trace or a
// fault-injection plan — and "fast" otherwise, whatever Options.Fast
// requests. The profiler (charged at predicate switches) and the
// telemetry hooks (progress heartbeats, spans, the always-on flight
// recorder) are not taps. Either way the run report is byte-identical
// apart from its mode field, and a profile's total is the run's Steps.

import (
	"bytes"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// solveAll runs the query to exhaustion so the machine has done real
// work before the assertions look at it.
func solveAll(t *testing.T, m *Machine, query string) error {
	t.Helper()
	s, err := m.Solve(query)
	if err != nil {
		t.Fatalf("Solve(%q): %v", query, err)
	}
	for {
		if _, ok := s.Next(); !ok {
			return s.Err()
		}
	}
}

func TestFastForcedExactByConsumers(t *testing.T) {
	report := func(t *testing.T, opts Options) (*Machine, *obs.RunReport) {
		t.Helper()
		m, err := LoadProgram(diffSrc, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := solveAll(t, m, "app(X, Y, [a, b, c])"); err != nil {
			t.Fatal(err)
		}
		return m, m.RunReport("t", nil)
	}
	_, base := report(t, Options{})
	baseJSON, err := base.JSON()
	if err != nil {
		t.Fatal(err)
	}
	never := &fault.Plan{Site: fault.SiteMem, After: 1 << 40, Seed: 1}
	cases := []struct {
		name string
		opts Options
		want string
	}{
		// Neither engine request picks a path; the flight recorder is
		// always attached by LoadProgram.
		{"plain-fast", Options{Fast: true}, "fast"},
		{"plain-exact", Options{}, "fast"},
		// The profiler is charged at predicate switches and telemetry
		// rides the event boundary: neither is a per-cycle tap.
		{"profiler", Options{Fast: true, Profile: true}, "fast"},
		{"exact-profiler", Options{Profile: true}, "fast"},
		{"progress", Options{Progress: func(obs.Progress) {}, ProgressEvery: 100}, "fast"},
		{"spans", Options{Spans: telemetry.NewSpanLog()}, "fast"},
		// Per-cycle taps.
		{"collect", Options{Fast: true, Collect: true}, "exact"},
		{"fault", Options{Fast: true, Fault: never}, "exact"},
		{"collect-profile", Options{Collect: true, Profile: true}, "exact"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, rep := report(t, c.opts)
			if got := m.AccountingMode(); got != c.want {
				t.Fatalf("AccountingMode: got %q, want %q", got, c.want)
			}
			if rep.Mode != c.want {
				t.Fatalf("RunReport.Mode: got %q, want %q", rep.Mode, c.want)
			}
			rep.Mode = base.Mode
			got, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, baseJSON) {
				t.Errorf("run report diverges from the plain run:\n--- plain\n%s\n--- %s\n%s", baseJSON, c.name, got)
			}
			if rp := m.Profile("t"); c.opts.Profile && (rp == nil || rp.TotalCycles != m.Steps()) {
				t.Errorf("profile %+v does not attribute the run's %d cycles", rp, m.Steps())
			}
		})
	}
}

// TestFastSamplingProfilerKeepsFastByteIdentical runs the machine bare
// and with the profiler attached on a deeper recursion than the
// table above: the profiler must not change the accounting mode, the
// structured run report — every simulated statistic — must match byte
// for byte, and the profile must attribute exactly the run's Steps.
func TestFastSamplingProfilerKeepsFastByteIdentical(t *testing.T) {
	run := func(profile bool) (*Machine, []byte) {
		m, err := LoadProgram(diffSrc, Options{Fast: true, Profile: profile})
		if err != nil {
			t.Fatal(err)
		}
		if err := solveAll(t, m, "flat([a, [b, [c, d]], [], [[e]]], R)"); err != nil {
			t.Fatal(err)
		}
		rep, err := m.RunReport("t", nil).JSON()
		if err != nil {
			t.Fatal(err)
		}
		return m, rep
	}
	_, bareRep := run(false)
	m, profRep := run(true)
	if got := m.AccountingMode(); got != "fast" {
		t.Fatalf("profiler armed a per-cycle tap: mode %q", got)
	}
	if !bytes.Equal(bareRep, profRep) {
		t.Errorf("run report diverges between bare and profiled runs:\n--- bare\n%s\n--- profiled\n%s", bareRep, profRep)
	}
	rp := m.Profile("t")
	if rp == nil {
		t.Fatal("Profile() with Profile set returned nil")
	}
	if rp.TotalCycles != m.Steps() {
		t.Errorf("profile TotalCycles = %d, want exactly Steps = %d", rp.TotalCycles, m.Steps())
	}
	if len(rp.Entries) == 0 {
		t.Errorf("profile has no entries: %+v", rp)
	}
}
