package harness

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/pmms"
	"repro/internal/progs"
)

// labTestGrid is a small but axis-complete grid: all four replacement
// policies (random with an explicit seed), two capacities, two way
// counts, and a victim buffer on every lane — cheap enough to run under
// -race on every test invocation, unlike the full default grid.
func labTestGrid() pmms.Grid {
	return pmms.Grid{
		Capacities: []int{64, 256},
		Assocs:     []int{1, 2},
		Replacements: []cache.Replacement{
			cache.ReplaceLRU, cache.ReplaceFIFO, cache.ReplaceRandom, cache.ReplacePLRU,
		},
		Victims: 2,
		Seed:    7,
	}
}

// TestCacheLabWorkerDeterminism checks the lab's grid report — including
// the seeded-random and victim-buffer lanes — is byte-identical at any
// worker count. The full default-grid report is covered by
// TestWorkerCountDeterminism, which compares whole evaluations at -j 1
// and -j 8; this cheap variant runs even in -short mode.
func TestCacheLabWorkerDeterminism(t *testing.T) {
	lab := func(o Options) string {
		l, err := CacheLabFor(o, labTestGrid(), progs.QuickSort)
		if err != nil {
			t.Fatalf("CacheLabFor(%+v): %v", o, err)
		}
		return FormatCacheLab(l)
	}
	want := lab(Options{Workers: 1})
	for _, o := range []Options{{Workers: 1}, {Workers: 8}} {
		if got := lab(o); got != want {
			line, a, b := firstDiffLine(want, got)
			t.Fatalf("cache lab with %+v differs at line %d:\n first: %q\n again: %q", o, line, a, b)
		}
	}
}

// TestCacheLabAttribution checks the machine-run classification: the
// classes partition every lane's misses, and the reference lane's
// misses resolve to real predicate names of the workload (the sweeper
// receives EnterPredicate through the access feed — unlike a trace-file
// replay, where everything pools under "<main>").
func TestCacheLabAttribution(t *testing.T) {
	l, err := CacheLabFor(Options{Workers: 1}, labTestGrid(), progs.QuickSort)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Lanes) != 16 {
		t.Fatalf("lab has %d lanes, want 16", len(l.Lanes))
	}
	for _, ln := range l.Lanes {
		b := ln.Breakdown
		if b.FirstTouch+b.Capacity+b.Conflict != b.Misses {
			t.Errorf("lane %s: classes do not partition the misses: %+v", ln.Config, b)
		}
		if b.Misses == 0 {
			t.Errorf("lane %s: no misses at all on a real workload", ln.Config)
		}
	}
	if len(l.TopCauses) == 0 {
		t.Fatal("lab reports no miss causes")
	}
	named := false
	for _, mc := range l.TopCauses {
		if mc.Predicate != "<main>" {
			named = true
		}
		if mc.Misses == 0 {
			t.Errorf("miss cause %q has zero misses", mc.Predicate)
		}
	}
	if !named {
		t.Error("every miss cause is <main>: predicate attribution never fired")
	}
	// The lab's reference lane defaults to lane 0 when the grid does not
	// contain the machine's configuration.
	if l.RefConfig != l.Lanes[0].Config {
		t.Errorf("reference lane %q, want %q", l.RefConfig, l.Lanes[0].Config)
	}
}

// TestCacheLabDefaultRef checks the default grid attributes misses to
// the machine's own configuration and that the formatted section carries
// the grid and causes blocks.
func TestCacheLabDefaultRef(t *testing.T) {
	if testing.Short() {
		t.Skip("default-grid lab run skipped in -short mode")
	}
	l, err := CacheLabWith(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if l.RefConfig != cache.PSI.String() {
		t.Errorf("default lab reference lane %q, want the machine's %q", l.RefConfig, cache.PSI.String())
	}
	if l.Workload != progs.Window1.Name {
		t.Errorf("default lab workload %q, want %q", l.Workload, progs.Window1.Name)
	}
	if len(l.Lanes) != 36 {
		t.Errorf("default lab has %d lanes, want 36", len(l.Lanes))
	}
	out := FormatCacheLab(l)
	for _, want := range []string{"Cache lab:", "Top miss causes", "first-touch"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted lab is missing %q", want)
		}
	}
	if got := FormatCacheLab(nil); !strings.Contains(got, "degraded") {
		t.Errorf("nil lab should render the degraded placeholder, got %q", got)
	}
}
