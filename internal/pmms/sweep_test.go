package pmms

import (
	"bytes"
	"testing"

	"repro/internal/cache"
	"repro/internal/micro"
	"repro/internal/trace"
	"repro/internal/word"
)

// TestSweeperCountsStream checks the clock and access accounting: every
// fed cycle advances Cycles, only cache commands advance MemoryAccesses,
// both agree with the equivalent materialized log, and every lane sees
// every access — the 8K-word lane hitting more often than the 16-word
// one.
func TestSweeperCountsStream(t *testing.T) {
	l := synthLog(4000)
	s := NewSweeper([]cache.Config{SweepConfig(8192), SweepConfig(16)})
	for _, r := range l.Recs {
		s.Record(r)
	}
	if s.Cycles() != int64(l.Len()) {
		t.Errorf("cycles = %d, want %d", s.Cycles(), l.Len())
	}
	if s.MemoryAccesses() != int64(l.MemoryAccesses()) {
		t.Errorf("accesses = %d, want %d", s.MemoryAccesses(), l.MemoryAccesses())
	}
	want := int64(l.Len())*micro.CycleNS + int64(l.MemoryAccesses())*cache.MissExtraNS
	if s.TimeNoCacheNS() != want {
		t.Errorf("no-cache time = %d, want %d", s.TimeNoCacheNS(), want)
	}
	for i := 0; i < s.Lanes(); i++ {
		if got := s.Cache(i).Total.Accesses; got != s.MemoryAccesses() {
			t.Errorf("lane %d accesses = %d, want %d", i, got, s.MemoryAccesses())
		}
	}
	if big, small := s.Cache(0).HitRatio(), s.Cache(1).HitRatio(); big <= small {
		t.Errorf("bigger cache should hit more: %v vs %v", big, small)
	}
}

// TestSweeperFeedsAgree feeds the identical stream three ways — as
// micro.Cycle values (the machine tap), as a materialized log, and as a
// decoded trace file — and demands identical lane statistics. Each feed
// has its own Sweeper, so this also checks that the first-touch
// translation reproduces across replays.
func TestSweeperFeedsAgree(t *testing.T) {
	l := synthLog(3000)
	cfgs := []cache.Config{SweepConfig(64), cache.PSI, OneSetConfig, StoreThroughConfig}

	tap := NewSweeper(cfgs)
	for _, r := range l.Recs {
		tap.Cycle(r.Cycle())
	}
	logged := NewSweeper(cfgs)
	logged.ReplayLog(l)

	var buf bytes.Buffer
	if err := l.Write(&buf); err != nil {
		t.Fatal(err)
	}
	streamed := NewSweeper(cfgs)
	if err := trace.ReadStream(&buf, func(r trace.Rec) bool {
		streamed.Record(r)
		return true
	}); err != nil {
		t.Fatal(err)
	}

	for i := range cfgs {
		a, b, c := tap.Cache(i), logged.Cache(i), streamed.Cache(i)
		if a.Total != b.Total || b.Total != c.Total {
			t.Errorf("lane %d totals differ: tap %+v, log %+v, stream %+v", i, a.Total, b.Total, c.Total)
		}
		if a.StallNS != b.StallNS || b.StallNS != c.StallNS {
			t.Errorf("lane %d stalls differ: tap %d, log %d, stream %d", i, a.StallNS, b.StallNS, c.StallNS)
		}
	}
	if tap.Cycles() != logged.Cycles() || logged.Cycles() != streamed.Cycles() {
		t.Errorf("cycle counts differ: %d/%d/%d", tap.Cycles(), logged.Cycles(), streamed.Cycles())
	}
}

// TestSweeperSinglePass proves the engine traverses the stream exactly
// once no matter how many lanes it drives: the Each-based feed consumes
// each record one time.
func TestSweeperSinglePass(t *testing.T) {
	l := synthLog(200)
	var visits int
	l.Each(func(trace.Rec) bool { visits++; return true })
	if visits != l.Len() {
		t.Fatalf("Each visited %d of %d records", visits, l.Len())
	}
	// A sweeper over many lanes still consumes each record once: its
	// cycle count equals the record count, not lanes x records.
	s := NewSweeper(LegacyLanes())
	s.ReplayLog(l)
	if s.Cycles() != int64(l.Len()) {
		t.Errorf("sweeper consumed %d records for %d-record trace (lanes %d)",
			s.Cycles(), l.Len(), s.Lanes())
	}
}

// TestSweeperPointAt checks the Figure 1 sample rendering of a sweep
// capacity against a fresh replay of that configuration.
func TestSweeperPointAt(t *testing.T) {
	l := synthLog(4000)
	s := NewSweeper([]cache.Config{SweepConfig(256)})
	s.ReplayLog(l)
	fresh := FreshReplay(l, SweepConfig(256))
	base := int64(l.Len()) * micro.CycleNS
	tnc := base + int64(l.MemoryAccesses())*cache.MissExtraNS
	want := Point{
		Words:       256,
		Improvement: (float64(tnc)/float64(base+fresh.StallNS) - 1) * 100,
		HitRatio:    fresh.HitRatio(),
	}
	if got := s.PointAt(0); got != want {
		t.Errorf("PointAt = %+v, want %+v", got, want)
	}
}

// TestSweeperMixedBlockSizes exercises the lane grouping: the Figure 1
// lanes and configurations with other block sizes replay side by side,
// each lane equal to a fresh replay of its configuration.
func TestSweeperMixedBlockSizes(t *testing.T) {
	l := synthLog(6000)
	cfgs := append(LegacyLanes(),
		cache.Config{Words: 256, Assoc: 2, BlockWords: 8, Policy: cache.StoreIn},
		cache.Config{Words: 256, Assoc: 1, BlockWords: 2, Policy: cache.StoreThrough},
	)
	s := NewSweeper(cfgs)
	s.ReplayLog(l)
	for i, cfg := range cfgs {
		got, want := s.Cache(i), FreshReplay(l, cfg)
		if got.Total != want.Total || got.Area != want.Area || got.StallNS != want.StallNS {
			t.Errorf("%s: streaming %+v/%d, fresh %+v/%d",
				cfg, got.Total, got.StallNS, want.Total, want.StallNS)
		}
	}
}

// TestSweeperEmptyStream: zero cycles must not divide by zero.
func TestSweeperEmptyStream(t *testing.T) {
	s := NewSweeper([]cache.Config{cache.PSI})
	if got := s.Improvement(0); got != 0 {
		t.Errorf("empty improvement = %v", got)
	}
	if s.TimeNS(0) != 0 || s.TimeNoCacheNS() != 0 {
		t.Errorf("empty times = %d/%d", s.TimeNS(0), s.TimeNoCacheNS())
	}
}

// TestSweeperIgnoresIdleCycles: OpNone cycles advance the clock but
// never reach the lanes.
func TestSweeperIgnoresIdleCycles(t *testing.T) {
	s := NewSweeper([]cache.Config{cache.PSI})
	s.Cycle(micro.Cycle{Module: micro.MControl})
	s.Cycle(micro.Cycle{Cache: micro.OpRead, Addr: word.MakeAddr(word.AreaHeap, 1)})
	if s.Cycles() != 2 || s.MemoryAccesses() != 1 {
		t.Errorf("cycles=%d accesses=%d", s.Cycles(), s.MemoryAccesses())
	}
	if s.Cache(0).Total.Accesses != 1 {
		t.Errorf("lane accesses = %d", s.Cache(0).Total.Accesses)
	}
}
