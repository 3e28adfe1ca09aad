package core_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/micro"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/word"
)

// TestFastResetTapHygiene is the pool-hygiene regression for the
// pinned sentinels: one machine is Reset back and forth between tapped
// (trace, fault), access-fed and untapped configurations. After every
// Reset its statistics, run report and AccountingMode must equal a
// fresh machine's; an untapped run must leave both sentinels at the
// step limit instead of entering the event boundary on every cycle,
// and an access-fed run only the memory cycles' sentinel pinned.
func TestFastResetTapHygiene(t *testing.T) {
	c, err := harness.Compile(progs.NReverse)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 4_000_000_000
	never := &fault.Plan{Site: fault.SiteMem, After: 1 << 40, Seed: 1}
	configs := []struct {
		name string
		cfg  func() core.Config
		mode string
	}{
		{"untapped", func() core.Config { return core.Config{MaxSteps: limit} }, "fast"},
		{"trace", func() core.Config { return core.Config{MaxSteps: limit, Trace: &micro.Stats{}} }, "exact"},
		{"fault", func() core.Config { return core.Config{MaxSteps: limit, Fault: never.New()} }, "exact"},
		{"access", func() core.Config { return core.Config{MaxSteps: limit, Access: new(accessCount)} }, "fast"},
	}
	run := func(t *testing.T, m *core.Machine) (micro.Stats, []byte) {
		t.Helper()
		sols := m.SolveQuery(c.Query)
		if _, ok := sols.Next(); !ok {
			t.Fatal(sols.Err())
		}
		rep, err := obs.NewRunReport(m, "t", nil).JSON()
		if err != nil {
			t.Fatal(err)
		}
		return *m.Stats(), rep
	}
	pooled := core.New(c.Prog, configs[0].cfg())
	for _, i := range []int{0, 1, 0, 2, 0, 3, 1, 3, 2, 0, 3, 0} {
		k := configs[i]
		fresh := core.New(c.Prog, k.cfg())
		wantStats, wantRep := run(t, fresh)
		if !pooled.Reset(c.Prog, k.cfg()) {
			t.Fatal("Reset refused")
		}
		if got := pooled.AccountingMode(); got != k.mode {
			t.Fatalf("%s after Reset: mode %q, want %q", k.name, got, k.mode)
		}
		gotStats, gotRep := run(t, pooled)
		if gotStats != wantStats {
			t.Errorf("%s after Reset: statistics differ from a fresh machine's", k.name)
		}
		if !bytes.Equal(gotRep, wantRep) {
			t.Errorf("%s after Reset: report differs from a fresh machine's:\n%s\n--- fresh\n%s", k.name, gotRep, wantRep)
		}
		if got := pooled.AccountingMode(); got != fresh.AccountingMode() {
			t.Errorf("%s after Reset: mode %q, fresh machine %q", k.name, got, fresh.AccountingMode())
		}
		wantStop, wantMem := int64(0), int64(0)
		if k.mode == "fast" {
			wantStop = limit
		}
		if k.name == "untapped" {
			wantMem = limit
		}
		if got := pooled.StepStop(); got != wantStop {
			t.Errorf("%s after its run: sentinel at %d, want %d", k.name, got, wantStop)
		}
		if got := pooled.MemStop(); got != wantMem {
			t.Errorf("%s after its run: memory sentinel at %d, want %d", k.name, got, wantMem)
		}
	}
	if untapped := core.New(c.Prog, core.Config{}); untapped.StepStop() != math.MaxInt64 {
		t.Errorf("unbounded untapped machine: sentinel at %d, want MaxInt64", untapped.StepStop())
	}
}

// accessCount is an access sink that only counts.
type accessCount int64

func (n *accessCount) Access(micro.CacheOp, word.Addr) { *n++ }
