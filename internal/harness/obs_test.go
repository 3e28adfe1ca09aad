package harness

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/progs"
)

// TestProfileTotalMatchesStats is the acceptance check for the simulated
// profiler: the per-predicate cycle totals of a BUP run must equal the
// run's micro.Stats cycle count exactly — no cycle unattributed, none
// double-counted.
func TestProfileTotalMatchesStats(t *testing.T) {
	rp, err := Profile(progs.BUP2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunPSI(progs.BUP2, false)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	s := r.Machine.Stats()
	if rp.TotalCycles != s.Steps {
		t.Errorf("profile total = %d cycles, stats counted %d", rp.TotalCycles, s.Steps)
	}
	var sum int64
	for _, e := range rp.Entries {
		sum += e.Cycles
	}
	if sum != rp.TotalCycles {
		t.Errorf("entries sum to %d, TotalCycles = %d", sum, rp.TotalCycles)
	}
	if rp.Workload != progs.BUP2.Name {
		t.Errorf("workload = %q, want %q", rp.Workload, progs.BUP2.Name)
	}
	if len(rp.Entries) < 2 {
		t.Fatalf("BUP profile has only %d entries", len(rp.Entries))
	}
}

// TestOptionsProgressHeartbeats checks that Options.Progress receives
// cell-labelled heartbeats from table runs — including on multiple
// workers — and that enabling it does not change the computed rows.
func TestOptionsProgressHeartbeats(t *testing.T) {
	quiet, err := Table2With(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var cells []string
	o := Options{
		Workers:       2,
		ProgressEvery: 50_000,
		Progress: func(p obs.Progress) {
			mu.Lock()
			cells = append(cells, p.Cell)
			mu.Unlock()
			if p.Cycles <= 0 {
				t.Errorf("heartbeat with %d cycles", p.Cycles)
			}
		},
	}
	loud, err := Table2With(o)
	if err != nil {
		t.Fatal(err)
	}
	if FormatTable2(quiet) != FormatTable2(loud) {
		t.Error("enabling progress changed Table 2 output")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(cells) == 0 {
		t.Fatal("no heartbeats at a 50k-cycle period")
	}
	for _, c := range cells {
		if !strings.HasPrefix(c, "table2/") {
			t.Errorf("heartbeat cell %q does not name a table2 cell", c)
		}
	}
}
