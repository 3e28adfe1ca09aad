package pmms

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/micro"
	"repro/internal/trace"
	"repro/internal/word"
)

// synthLog builds a trace with locality: a loop over a small code region
// plus stack pushes.
func synthLog(n int) *trace.Log {
	var l trace.Log
	for i := 0; i < n; i++ {
		// Three plain cycles per memory access: 25% memory rate.
		l.Cycle(micro.Cycle{Module: micro.MControl})
		l.Cycle(micro.Cycle{Module: micro.MUnify})
		l.Cycle(micro.Cycle{Module: micro.MUnify})
		switch i % 4 {
		case 0, 1:
			l.Cycle(micro.Cycle{Cache: micro.OpRead,
				Addr: word.MakeAddr(word.AreaHeap, uint32(i%64))})
		case 2:
			l.Cycle(micro.Cycle{Cache: micro.OpRead,
				Addr: word.MakeAddr(word.AreaGlobal, uint32(i%512))})
		default:
			l.Cycle(micro.Cycle{Cache: micro.OpWriteStack,
				Addr: word.MakeAddr(word.AreaLocal, uint32(i))})
		}
	}
	return &l
}

// FreshReplay is the reference the Sweeper is checked against: one
// configuration, its own first-touch translation table, and every access
// through cache.Access (the Sweeper shares one table across lanes and
// calls cache.AccessBlock).
func FreshReplay(l *trace.Log, cfg cache.Config) *cache.Cache {
	c := cache.New(cfg)
	atu := mem.New(3)
	for _, r := range l.Recs {
		op := micro.CacheOp(r.Cache)
		if op == micro.OpNone {
			continue
		}
		a := word.Addr(r.Addr)
		c.Access(op, atu.Translate(a), a.Area())
	}
	return c
}

// TestTimes checks the simulated times: with a cache the run beats the
// cacheless run but never the bare cycle floor, and without one every
// access pays the full miss latency.
func TestTimes(t *testing.T) {
	l := synthLog(1000)
	s := NewSweeper([]cache.Config{cache.PSI})
	s.ReplayLog(l)
	tc, tnc := s.TimeNS(0), s.TimeNoCacheNS()
	if tc >= tnc {
		t.Errorf("cached time %d should beat uncached %d", tc, tnc)
	}
	base := int64(l.Len()) * micro.CycleNS
	if tc < base {
		t.Errorf("cached time below cycle floor")
	}
	if got := tnc - base; got != int64(l.MemoryAccesses())*cache.MissExtraNS {
		t.Errorf("no-cache stall = %d", got)
	}
}

// TestImprovementMonotone replays the Figure 1 capacity sweep: the
// improvement grows with capacity and the largest cache pays off.
func TestImprovementMonotone(t *testing.T) {
	l := synthLog(8000)
	s := NewSweeper(LegacyLanes()[:SweepLanes])
	s.ReplayLog(l)
	for i := 1; i < SweepLanes; i++ {
		if s.Improvement(i) < s.Improvement(i-1)-0.5 {
			t.Errorf("improvement dropped at %d words: %v -> %v",
				s.Cache(i).Config().Words, s.Improvement(i-1), s.Improvement(i))
		}
	}
	if s.Improvement(SweepLanes-1) <= 0 {
		t.Error("large cache should improve over no cache")
	}
}

// TestImprovementDefinition pins the Figure 1 formula on every lane:
// (Tnc/Tc - 1) * 100.
func TestImprovementDefinition(t *testing.T) {
	l := synthLog(1000)
	s := NewSweeper(LegacyLanes())
	s.ReplayLog(l)
	for i := 0; i < s.Lanes(); i++ {
		want := (float64(s.TimeNoCacheNS())/float64(s.TimeNS(i)) - 1) * 100
		if got := s.Improvement(i); got != want {
			t.Errorf("lane %d: Improvement = %v, want %v", i, got, want)
		}
	}
}
