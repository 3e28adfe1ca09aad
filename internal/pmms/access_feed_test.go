package pmms_test

// Differential lockdown of the live access feed: a Sweeper fed only the
// memory accesses of a running machine (core.Config.Access), plus the
// run's cycle count at the end, must compute exactly what the same
// Sweeper computes from every cycle of that run — the trace it would
// have logged — on every lane, and a classified grid must attribute the
// same misses to the same predicates.

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/micro"
	"repro/internal/pmms"
	"repro/internal/progs"
	"repro/internal/trace"
	"repro/internal/word"
)

// maxTraceSteps bounds the runs whose COLLECT trace is materialized for
// the trace-replay comparison (12 bytes a record, so about 50 MB); the
// larger runs are checked against the per-cycle feed alone, which hands
// the sweeper the records that trace would hold.
const maxTraceSteps = 4_000_000

// accessFeedBenchmarks is the 19 Table 1 programs plus the hardware
// evaluation's WINDOW and 8 puzzle runs; nreverse alone under -short.
func accessFeedBenchmarks() []progs.Benchmark {
	if testing.Short() {
		return []progs.Benchmark{progs.NReverse}
	}
	return append(progs.Table1(), progs.Window1, progs.Window2, progs.Window3, progs.Puzzle8)
}

// accessTee is the live feed under test: every memory access and every
// predicate switch goes to each sweeper.
type accessTee []*pmms.Sweeper

func (f accessTee) Access(op micro.CacheOp, a word.Addr) {
	for _, s := range f {
		s.Access(op, a)
	}
}

func (f accessTee) EnterPredicate(id int) {
	for _, s := range f {
		s.EnterPredicate(id)
	}
}

// cycleFeed is the per-cycle reference, attached as Config.Trace:
// each cycle reaches the sweepers as the trace record COLLECT would log
// for it, alongside the predicate context.
type cycleFeed []*pmms.Sweeper

func (f cycleFeed) Cycle(c micro.Cycle) {
	r := trace.Rec{Cache: uint8(c.Cache), Addr: uint32(c.Addr)}
	for _, s := range f {
		s.Record(r)
	}
}

func (f cycleFeed) EnterPredicate(id int) {
	for _, s := range f {
		s.EnterPredicate(id)
	}
}

// runLive runs b to its first solution under cfg and returns the
// machine's statistics and accounting mode.
func runLive(t *testing.T, b progs.Benchmark, cfg core.Config) (micro.Stats, string) {
	t.Helper()
	c, err := harness.Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxSteps = core.DefaultMaxSteps
	live, err := c.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Release()
	if st, err := live.Session.Next(context.Background()); st != engine.Solution {
		t.Fatalf("%s: run ended %v: %v", b.Name, st, err)
	}
	return *live.Machine.Stats(), live.Machine.AccountingMode()
}

// sameSweep reports every lane on which got and want differ.
func sameSweep(t *testing.T, what string, got, want *pmms.Sweeper) {
	t.Helper()
	if got.Cycles() != want.Cycles() || got.MemoryAccesses() != want.MemoryAccesses() {
		t.Errorf("%s: cycles/accesses %d/%d, want %d/%d",
			what, got.Cycles(), got.MemoryAccesses(), want.Cycles(), want.MemoryAccesses())
	}
	for i := 0; i < got.Lanes(); i++ {
		g, w := got.Cache(i), want.Cache(i)
		if g.Total != w.Total || g.Area != w.Area || g.StallNS != w.StallNS ||
			g.Fills != w.Fills || g.WriteBacks != w.WriteBacks || g.WriteThroughs != w.WriteThroughs ||
			g.VictimHits != w.VictimHits || got.Misses(i) != want.Misses(i) {
			t.Errorf("%s lane %v: %+v stall=%d wb=%d misses=%+v, want %+v stall=%d wb=%d misses=%+v",
				what, g.Config(), g.Total, g.StallNS, g.WriteBacks, got.Misses(i),
				w.Total, w.StallNS, w.WriteBacks, want.Misses(i))
		}
	}
}

// TestAccessFeedMatchesCycleFeed feeds each workload's Figure 1 lanes and
// the classified default grid three ways: live through the access feed
// (the evaluation's path), live through a per-cycle Profile tap, and —
// for runs whose trace fits maxTraceSteps — from ReplayLog of
// harness.TraceFor. Every lane must agree on every counter, the grid on
// its classified misses, and the two live feeds on the per-predicate
// attribution the trace does not carry. The access-fed run must stay in
// fast accounting with the same statistics as the tapped run.
func TestAccessFeedMatchesCycleFeed(t *testing.T) {
	lanes, grid := pmms.LegacyLanes(), pmms.DefaultGrid().Configs()
	ref := 0
	for i, cfg := range grid {
		if cfg == cache.PSI {
			ref = i
		}
	}
	newGrid := func() *pmms.Sweeper {
		s := pmms.NewSweeper(grid)
		s.Classify(ref)
		return s
	}
	for _, b := range accessFeedBenchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			fig, lab := pmms.NewSweeper(lanes), newGrid()
			stats, mode := runLive(t, b, core.Config{Access: accessTee{fig, lab}})
			if mode != engine.ModeFast {
				t.Errorf("access-fed run accounts in %q mode, want %q", mode, engine.ModeFast)
			}
			fig.AddCycles(stats.Steps)
			lab.AddCycles(stats.Steps)

			cycFig, cycLab := pmms.NewSweeper(lanes), newGrid()
			cycStats, _ := runLive(t, b, core.Config{Trace: cycleFeed{cycFig, cycLab}})
			if stats != cycStats {
				t.Errorf("access-fed statistics differ from the per-cycle run's")
			}
			sameSweep(t, "figure 1 lanes vs per-cycle feed", fig, cycFig)
			sameSweep(t, "grid vs per-cycle feed", lab, cycLab)
			got, want := lab.PredMisses(), cycLab.PredMisses()
			if len(got) != len(want) {
				t.Fatalf("predicate attribution: %d predicates, per-cycle feed %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("predicate attribution row %d: %+v, per-cycle feed %+v", i, got[i], want[i])
				}
			}

			if stats.Steps > maxTraceSteps {
				return
			}
			l, err := harness.TraceFor(b)
			if err != nil {
				t.Fatal(err)
			}
			trFig, trLab := pmms.NewSweeper(lanes), newGrid()
			trFig.ReplayLog(l)
			trLab.ReplayLog(l)
			sameSweep(t, "figure 1 lanes vs trace replay", fig, trFig)
			sameSweep(t, "grid vs trace replay", lab, trLab)
		})
	}
}
