package pmms_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/harness"
	"repro/internal/micro"
	"repro/internal/pmms"
	"repro/internal/progs"
)

// labConfigs is the grid the lab differential sweeps: the default
// policy grid plus a victim-buffer lane and a seeded-random
// store-through lane, so every new cache axis crosses a real trace.
func labConfigs() []cache.Config {
	cfgs := pmms.DefaultGrid().Configs()
	cfgs = append(cfgs,
		cache.Config{Words: 4096, Assoc: 1, BlockWords: 4, Victims: 8},
		cache.Config{Words: 4096, Assoc: 2, BlockWords: 4, Policy: cache.StoreThrough,
			Replacement: cache.ReplaceRandom, Seed: 42},
	)
	return cfgs
}

// TestDefaultGridShape pins the default grid: the full 4-policy x
// 3-capacity x 3-associativity cross product, with the machine's own
// configuration as one of its lanes.
func TestDefaultGridShape(t *testing.T) {
	cfgs := pmms.DefaultGrid().Configs()
	if len(cfgs) != 36 {
		t.Fatalf("default grid has %d lanes, want 36", len(cfgs))
	}
	found := false
	for _, c := range cfgs {
		if c == cache.PSI {
			found = true
		}
		if err := c.Validate(); err != nil {
			t.Errorf("grid emitted invalid config %v: %v", c, err)
		}
	}
	if !found {
		t.Error("default grid does not contain the machine's configuration (cache.PSI)")
	}
}

// TestGridSkipsInvalidCombos checks the cross product silently drops
// combinations the geometry cannot realize.
func TestGridSkipsInvalidCombos(t *testing.T) {
	g := pmms.Grid{
		Capacities:   []int{96},
		Assocs:       []int{2, 3},
		Replacements: []cache.Replacement{cache.ReplacePLRU},
	}
	cfgs := g.Configs()
	// 96w/2-set has 12 rows (not a power of two) and 96w/3-set fails
	// plru's power-of-two way requirement: nothing survives.
	if len(cfgs) != 0 {
		t.Errorf("got %d configs from an unrealizable grid, want 0", len(cfgs))
	}
}

// TestLegacyLanes pins the 14-lane Figure 1 plan and its lane indices.
func TestLegacyLanes(t *testing.T) {
	lanes := pmms.LegacyLanes()
	sizes := []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}
	if len(lanes) != 14 || pmms.SweepLanes != len(sizes) {
		t.Fatalf("LegacyLanes has %d lanes (%d sweep), want 14 (%d)", len(lanes), pmms.SweepLanes, len(sizes))
	}
	if lanes[pmms.LanePSI] != cache.PSI || lanes[pmms.LaneOneSet] != pmms.OneSetConfig ||
		lanes[pmms.LaneStoreThrough] != pmms.StoreThroughConfig || pmms.LaneStoreThrough != len(lanes)-1 {
		t.Error("LegacyLanes ablation tail is wrong")
	}
	for i, w := range sizes {
		if lanes[i] != pmms.SweepConfig(w) {
			t.Errorf("lane %d = %v, want SweepConfig(%d)", i, lanes[i], w)
		}
	}
}

// TestParseGrid covers the CLI spec syntax.
func TestParseGrid(t *testing.T) {
	g, err := pmms.ParseGrid("caps=64,128;assoc=2;repl=fifo,plru;policy=store-through;block=4;victims=2;seed=9")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := g.Configs()
	if len(cfgs) != 4 {
		t.Fatalf("got %d configs, want 4", len(cfgs))
	}
	want := cache.Config{Words: 64, Assoc: 2, BlockWords: 4, Policy: cache.StoreThrough,
		Replacement: cache.ReplaceFIFO, Victims: 2, Seed: 9}
	if cfgs[0] != want {
		t.Errorf("first config = %v, want %v", cfgs[0], want)
	}
	if d, err := pmms.ParseGrid(""); err != nil || len(d.Configs()) != 36 {
		t.Errorf("empty spec should be the default grid (err %v)", err)
	}
	for _, bad := range []string{"caps", "caps=x", "repl=mru", "policy=wb", "nope=1", "assoc=3;repl=plru;caps=96"} {
		if _, err := pmms.ParseGrid(bad); err == nil {
			t.Errorf("ParseGrid(%q) accepted bad input", bad)
		}
	}
}

// TestGridLanesMatchFreshReplay is the lab differential: every grid
// lane — all four policies, the victim buffer, seeded random under
// store-through — must equal pmms.FreshReplay of the same configuration
// over the same real trace, and an unclassified Sweeper must agree too:
// classification being on must not perturb any statistic.
func TestGridLanesMatchFreshReplay(t *testing.T) {
	cfgs := labConfigs()
	for _, b := range []progs.Benchmark{progs.QuickSort, progs.BUP1, progs.QueensFirst} {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			l, err := harness.TraceFor(b)
			if err != nil {
				t.Fatal(err)
			}
			s := pmms.NewSweeper(cfgs)
			s.Classify(0)
			s.ReplayLog(l)
			plain := pmms.NewSweeper(cfgs)
			plain.ReplayLog(l)
			for i, cfg := range cfgs {
				i, cfg := i, cfg
				t.Run(cfg.String(), func(t *testing.T) {
					compareLane(t, l, s, i, cfg)
					if got, want := s.Cache(i), plain.Cache(i); got.Total != want.Total || got.StallNS != want.StallNS ||
						got.VictimHits != want.VictimHits {
						t.Errorf("classified sweep diverged from the unclassified one: %+v vs %+v", got.Total, want.Total)
					}
				})
			}
		})
	}
}

// TestClassificationInvariants checks the 3C partition on a real trace:
// the classes partition each lane's misses exactly, first-touch counts
// agree across lanes of equal block size, and a fully-associative LRU
// lane can have no conflict misses (it IS its own shadow).
func TestClassificationInvariants(t *testing.T) {
	cfgs := append(labConfigs(),
		// Fully-associative LRU lane: 256 blocks in one row.
		cache.Config{Words: 1024, Assoc: 256, BlockWords: 4},
	)
	faLane := len(cfgs) - 1
	l, err := harness.TraceFor(progs.QuickSort)
	if err != nil {
		t.Fatal(err)
	}
	s := pmms.NewSweeper(cfgs)
	s.Classify(0)
	s.ReplayLog(l)

	firstTouch := map[int]int64{} // block size -> first-touch count of missing-every-block lanes
	for i := range cfgs {
		c := s.Cache(i)
		mb := s.Misses(i)
		misses := c.Total.Accesses - c.Total.Hits
		if mb.Misses != misses {
			t.Errorf("lane %v: breakdown misses %d, cache misses %d", cfgs[i], mb.Misses, misses)
		}
		if mb.FirstTouch+mb.Capacity+mb.Conflict != mb.Misses {
			t.Errorf("lane %v: classes do not partition the misses: %+v", cfgs[i], mb)
		}
		// Every lane of one block size sees the same first-touch
		// misses: a never-seen block misses in every cache.
		if prev, ok := firstTouch[cfgs[i].BlockWords]; ok && prev != mb.FirstTouch {
			t.Errorf("lane %v: first-touch %d, previous same-block-size lane %d", cfgs[i], mb.FirstTouch, prev)
		}
		firstTouch[cfgs[i].BlockWords] = mb.FirstTouch
	}
	if fa := s.Misses(faLane); fa.Conflict != 0 {
		t.Errorf("fully-associative LRU lane reports %d conflict misses, want 0", fa.Conflict)
	}
	// Trace replays carry no predicate context: all reference-lane
	// misses pool under micro.NoPredicate and sum to the lane's misses.
	pms := s.PredMisses()
	if len(pms) != 1 || pms[0].Pred != micro.NoPredicate {
		t.Fatalf("trace replay pred attribution = %+v, want a single NoPredicate bucket", pms)
	}
	if ref := s.Misses(s.RefLane()); pms[0].Misses != ref.Misses {
		t.Errorf("pred-attributed misses %d != reference lane misses %d", pms[0].Misses, ref.Misses)
	}
}
