package core_test

import (
	"errors"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/micro"
	"repro/internal/progs"
)

// TestAbortedRunMemoryCommandsMatchCache ends nreverse at every step
// limit from 1 to 399, with the PSI cache and without one, and in
// contained cache tag-parity and trace-FIFO faults. Many of those runs
// abort inside a memory cycle before the memory system sees it; the
// statistics must still count exactly the memory commands the cache
// counted (without a cache, the accesses the stall time accounts for),
// per area too, and a step-limit abort must still count the cycle that
// crossed the limit.
func TestAbortedRunMemoryCommandsMatchCache(t *testing.T) {
	c, err := harness.Compile(progs.NReverse)
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, what string, cfg core.Config, wantErr error) *micro.Stats {
		t.Helper()
		m := core.New(c.Prog, cfg)
		sols := m.SolveQuery(c.Query)
		if _, ok := sols.Next(); ok || !errors.Is(sols.Err(), wantErr) {
			t.Fatalf("%s: run ended with %v, want %v", what, sols.Err(), wantErr)
		}
		s := m.Stats()
		var total, sum int64
		var area [5]int64
		if ch := m.Cache(); ch != nil {
			total = ch.Total.Accesses
			for k := range area {
				area[k] = ch.Area[k].Accesses
			}
		} else {
			total = (m.TimeNS() - s.Steps*micro.CycleNS) / cache.MissExtraNS
		}
		if got := s.MemoryAccesses(); got != total {
			t.Errorf("%s: statistics count %d memory commands, the memory system %d accesses", what, got, total)
		}
		for _, n := range s.CacheOps {
			sum += n
		}
		if sum != s.Steps {
			t.Errorf("%s: cache-op counts sum to %d, Steps is %d", what, sum, s.Steps)
		}
		if m.Cache() != nil {
			for k := range area {
				var n int64
				for _, c := range s.AreaOps[k] {
					n += c
				}
				if n != area[k] {
					t.Errorf("%s: area %d: %d memory commands, %d cache accesses", what, k, n, area[k])
				}
			}
		}
		return s
	}
	for _, noCache := range []bool{false, true} {
		for limit := int64(1); limit < 400; limit++ {
			s := check(t, "step limit", core.Config{MaxSteps: limit, NoCache: noCache}, engine.ErrStepLimit)
			if s.Steps != limit+1 {
				t.Errorf("limit %d: %d steps, want the limit plus the cycle that crossed it", limit, s.Steps)
			}
		}
	}
	for _, site := range []fault.Site{fault.SiteCache, fault.SiteTrace} {
		for _, after := range []int64{1, 2, 3, 57, 1000} {
			plan := &fault.Plan{Site: site, After: after, Seed: 1}
			check(t, site.String(), core.Config{MaxSteps: core.DefaultMaxSteps, Fault: plan.New()}, engine.ErrFault)
		}
	}
}
