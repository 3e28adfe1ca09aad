package pmms_test

// Differential lockdown of the streaming fan-out: for every Figure 1
// capacity and every ablation configuration, one single-pass Sweeper
// over a real benchmark trace must produce per-area statistics, stall
// times, traffic counters and improvement ratios identical to
// pmms.FreshReplay of the same trace: one configuration, its own
// translation table, every access through cache.Access. The traces come from actual Table 1 /
// hardware-evaluation workloads (a small subset always, a medium subset
// unless -short), so the comparison covers the real access patterns the
// goldens are computed from.

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/harness"
	"repro/internal/micro"
	"repro/internal/pmms"
	"repro/internal/progs"
	"repro/internal/trace"
)

// diffBenchmarks picks the trace sample: small benchmarks always, the
// medium tier only without -short. All are members of the paper's
// evaluation sets (Table 1 plus the hardware workloads).
func diffBenchmarks(t *testing.T) []progs.Benchmark {
	bs := []progs.Benchmark{
		progs.NReverse, progs.QuickSort, progs.TreeTraverse,
		progs.ReverseFunction, progs.BUP1, progs.QueensFirst,
	}
	if !testing.Short() {
		bs = append(bs,
			progs.LispFib, progs.LispNReverse, progs.SlowReverse,
			progs.BUP2, progs.LCP1, progs.Window1, progs.Puzzle8,
		)
	}
	return bs
}

// compareLane checks lane i of a finished Sweeper against a fresh replay
// of cfg over the same log.
func compareLane(t *testing.T, l *trace.Log, s *pmms.Sweeper, i int, cfg cache.Config) {
	t.Helper()
	fresh := pmms.FreshReplay(l, cfg)
	got := s.Cache(i)
	if got.Total != fresh.Total {
		t.Errorf("total stats: streaming %+v, fresh %+v", got.Total, fresh.Total)
	}
	if got.Area != fresh.Area {
		t.Errorf("area stats: streaming %+v, fresh %+v", got.Area, fresh.Area)
	}
	if got.StallNS != fresh.StallNS {
		t.Errorf("stall: streaming %d, fresh %d", got.StallNS, fresh.StallNS)
	}
	if got.Fills != fresh.Fills || got.WriteBacks != fresh.WriteBacks || got.WriteThroughs != fresh.WriteThroughs {
		t.Errorf("traffic: streaming fills=%d wb=%d wt=%d, fresh fills=%d wb=%d wt=%d",
			got.Fills, got.WriteBacks, got.WriteThroughs,
			fresh.Fills, fresh.WriteBacks, fresh.WriteThroughs)
	}
	if got.VictimHits != fresh.VictimHits {
		t.Errorf("victim hits: streaming %d, fresh %d", got.VictimHits, fresh.VictimHits)
	}
	if got.HitRatio() != fresh.HitRatio() {
		t.Errorf("hit ratio: streaming %v, fresh %v", got.HitRatio(), fresh.HitRatio())
	}
	tc := int64(l.Len())*micro.CycleNS + fresh.StallNS
	if s.TimeNS(i) != tc {
		t.Errorf("time: streaming %d, fresh %d", s.TimeNS(i), tc)
	}
	want := (float64(s.TimeNoCacheNS())/float64(tc) - 1) * 100
	if s.Improvement(i) != want {
		t.Errorf("improvement: streaming %v, fresh %v", s.Improvement(i), want)
	}
}

// TestStreamingMatchesLegacyReplay is the core differential: one
// single-pass fan-out over each benchmark trace, across the whole
// Figure 1 lane plan, versus a fresh replay per configuration.
func TestStreamingMatchesLegacyReplay(t *testing.T) {
	cfgs := pmms.LegacyLanes()
	for _, b := range diffBenchmarks(t) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			l, err := harness.TraceFor(b)
			if err != nil {
				t.Fatal(err)
			}
			s := pmms.NewSweeper(cfgs)
			s.ReplayLog(l)
			if s.Cycles() != int64(l.Len()) {
				t.Errorf("cycles: streaming %d, log %d", s.Cycles(), l.Len())
			}
			if s.MemoryAccesses() != int64(l.MemoryAccesses()) {
				t.Errorf("accesses: streaming %d, log %d", s.MemoryAccesses(), l.MemoryAccesses())
			}
			if tnc := int64(l.Len())*micro.CycleNS + int64(l.MemoryAccesses())*cache.MissExtraNS; s.TimeNoCacheNS() != tnc {
				t.Errorf("no-cache time: streaming %d, log %d", s.TimeNoCacheNS(), tnc)
			}
			for i, cfg := range cfgs {
				i, cfg := i, cfg
				t.Run(cfg.String(), func(t *testing.T) {
					compareLane(t, l, s, i, cfg)
				})
			}
		})
	}
}
