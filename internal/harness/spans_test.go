package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestOptionsSpansByteIdentical is the telemetry acceptance check at the
// harness level: attaching a span log to a parallel table run must
// leave the table byte-identical to a bare serial run, while the
// log captures one labelled span per evaluation cell and exports as a
// valid Chrome trace-event document.
func TestOptionsSpansByteIdentical(t *testing.T) {
	bare, err := Table2With(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	log := telemetry.NewSpanLog()
	traced, err := Table2With(Options{Workers: 4, Spans: log})
	if err != nil {
		t.Fatal(err)
	}
	if FormatTable2(bare) != FormatTable2(traced) {
		t.Error("attaching spans (4 workers) changed Table 2 output")
	}
	if log.Len() == 0 {
		t.Fatal("span log is empty after a traced table run")
	}
	var buf bytes.Buffer
	if err := log.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := telemetry.ReadTrace(&buf)
	if err != nil {
		t.Fatalf("exported trace does not round-trip: %v", err)
	}
	cells := 0
	for _, sp := range tr.TraceEvents {
		if sp.Cat != "cell" {
			continue
		}
		cells++
		if !strings.HasPrefix(sp.Name, "table2/") {
			t.Errorf("cell span %q does not name a table2 cell", sp.Name)
		}
		if sp.Args["status"] != "ok" {
			t.Errorf("cell span %q status %q, want ok", sp.Name, sp.Args["status"])
		}
		if sp.TID <= 0 {
			t.Errorf("cell span %q on tid %d, want a positive cell lane", sp.Name, sp.TID)
		}
	}
	if want := len(traced); cells != want {
		t.Errorf("trace holds %d cell spans, want one per row (%d)", cells, want)
	}
}
