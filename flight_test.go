package psi

// The flight-recorder acceptance check: a seeded chaos run that ends in
// a contained fault (engine.ErrFault, exit 7) must ship a non-empty
// flight dump in its structured report — the session's recent telemetry
// events, keyed by simulated step counts so the dump is as reproducible
// as the fault itself.

import (
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/obs"
)

func TestFaultReportCarriesFlightDump(t *testing.T) {
	run := func() *obs.RunReport {
		m, err := LoadProgram(diffSrc, Options{
			Fault: &fault.Plan{Site: fault.SiteMem, After: 300, Seed: 9},
		})
		if err != nil {
			t.Fatal(err)
		}
		runErr := solveAll(t, m, "app(X, Y, Z)")
		if runErr == nil {
			t.Fatal("fault never fired")
		}
		if !errors.Is(runErr, engine.ErrFault) || engine.ExitCode(runErr) != engine.ExitFault {
			t.Fatalf("run error %v is not a contained exit-7 fault", runErr)
		}
		rep := m.RunReport("chaos", nil)
		rep.SetTermination(runErr)
		return rep
	}
	rep := run()
	if rep.Fault == nil {
		t.Fatal("faulted report has no fault block")
	}
	fl := rep.Fault.Flight
	if len(fl) == 0 {
		t.Fatal("faulted report has an empty flight dump")
	}
	kinds := map[string]bool{}
	for _, e := range fl {
		kinds[e.Kind] = true
	}
	for _, want := range []string{"step", "fault"} {
		if !kinds[want] {
			t.Errorf("flight dump has no %q event (kinds seen: %v)", want, kinds)
		}
	}
	last := fl[len(fl)-1]
	if last.Kind != "fault" || last.Detail != "mem" {
		t.Errorf("last flight event = %+v, want the mem fault", last)
	}
	if last.Step != rep.Fault.Step {
		t.Errorf("flight fault at step %d, fault block says %d", last.Step, rep.Fault.Step)
	}

	// The dump is deterministic: a second identical chaos run must
	// serialize to the identical fault block (the stack is diagnostic
	// and stripped for the comparison).
	rep2 := run()
	rep.Fault.Stack, rep2.Fault.Stack = "", ""
	b1, err := json.Marshal(rep.Fault)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(rep2.Fault)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Errorf("flight dump is not reproducible:\n%s\n%s", b1, b2)
	}
}
