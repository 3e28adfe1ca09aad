package pmms

import (
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/micro"
	"repro/internal/trace"
	"repro/internal/word"
)

// Figure 1 ablation configurations. The paper compares the machine's
// cache ("two 4K-word sets", cache.PSI) against one 4K-word set — half
// the capacity, direct-mapped — and against the same geometry with a
// store-through write policy.
var (
	OneSetConfig       = cache.Config{Words: 4096, Assoc: 1, BlockWords: 4, Policy: cache.StoreIn}
	StoreThroughConfig = cache.Config{Words: 8192, Assoc: 2, BlockWords: 4, Policy: cache.StoreThrough}
)

// SweepConfig is the Figure 1 cache configuration at capacity w: the
// PSI's associativity, block size and write policy with the capacity
// swept.
func SweepConfig(w int) cache.Config {
	return cache.Config{Words: w, Assoc: 2, BlockWords: 4, Policy: cache.StoreIn}
}

// laneGroup shares one block-number computation across every lane of
// equal block size.
type laneGroup struct {
	shift uint32
	lanes []*cache.Cache
	idx   []int // global lane index of lanes[i] (configuration order)
}

// Sweeper replays one cache-command stream through many cache
// configurations in a single pass: each access is translated once and
// fanned out to every lane, so evaluating N configurations costs one
// trace traversal instead of N.
//
// Address translation is reproduced by one first-touch translation
// table shared by all lanes. This is equivalent to giving every lane its
// own table: page assignment is a pure function of the logical access
// stream (first-touch order), and every lane sees the same stream, so N
// private tables would all compute the same mapping — the Sweeper just
// computes it once. The differential tests check every lane against a
// fresh-table, one-configuration replay kept in the test code.
//
// A Sweeper implements micro.Sink, so it can tap a machine's cycle
// stream directly while the program runs (COLLECT without the O(trace)
// Log), and it can equally be fed from a materialized trace.Log
// (ReplayLog) or a trace file (trace.ReadStream into Record). All three
// feeds deliver the identical record stream, so the per-lane statistics
// are the same.
type Sweeper struct {
	caches   []*cache.Cache
	groups   []laneGroup
	atu      *mem.Memory
	cycles   int64
	accesses int64
	class    *classifier // nil = no per-miss classification
	curPred  int         // predicate executing now (micro.NoPredicate off-predicate)
}

// NewSweeper builds a fan-out over the given configurations (each must
// validate, as in cache.New). Lane i replays the stream through cfgs[i].
func NewSweeper(cfgs []cache.Config) *Sweeper {
	s := &Sweeper{atu: mem.New(3), curPred: micro.NoPredicate}
	for _, cfg := range cfgs {
		s.addLane(cache.New(cfg))
	}
	return s
}

// addLane appends a lane and files it in the group of its block size.
func (s *Sweeper) addLane(c *cache.Cache) {
	idx := len(s.caches)
	s.caches = append(s.caches, c)
	shift := c.BlockShift()
	for i := range s.groups {
		if s.groups[i].shift == shift {
			s.groups[i].lanes = append(s.groups[i].lanes, c)
			s.groups[i].idx = append(s.groups[i].idx, idx)
			return
		}
	}
	s.groups = append(s.groups, laneGroup{shift: shift, lanes: []*cache.Cache{c}, idx: []int{idx}})
}

// EnterPredicate implements micro.PredSink: attached as a machine's
// profile sink, the Sweeper learns which predicate is executing and
// attributes the reference lane's misses to it (the same
// kl0.Program.ProcAt code-range attribution the obs profiler uses).
// Trace-file replays never call it, so their misses pool under
// micro.NoPredicate.
func (s *Sweeper) EnterPredicate(id int) { s.curPred = id }

// Cycle implements micro.Sink: every cycle advances the simulated clock;
// cycles carrying a cache command fan out to every lane. Attaching the
// Sweeper as a machine's trace sink replays the run's cache behaviour
// through all configurations without materializing the trace.
func (s *Sweeper) Cycle(c micro.Cycle) {
	s.cycles++
	if c.Cache == micro.OpNone {
		return
	}
	s.access(c.Cache, c.Addr)
}

// Record feeds one trace record, e.g. from trace.ReadStream.
func (s *Sweeper) Record(r trace.Rec) {
	s.cycles++
	op := micro.CacheOp(r.Cache)
	if op == micro.OpNone {
		return
	}
	s.access(op, word.Addr(r.Addr))
}

// ReplayLog feeds every record of a materialized trace through the
// fan-out — the whole sweep in one traversal of the log.
func (s *Sweeper) ReplayLog(l *trace.Log) {
	l.Each(func(r trace.Rec) bool {
		s.Record(r)
		return true
	})
}

// access translates the address and reduces the area kind once, then
// dispatches the block number per block-size group.
func (s *Sweeper) access(op micro.CacheOp, a word.Addr) {
	s.accesses++
	phys := s.atu.Translate(a)
	kind := a.Area().Kind()
	for gi := range s.groups {
		g := &s.groups[gi]
		block := phys >> g.shift
		if s.class == nil {
			for _, c := range g.lanes {
				c.AccessBlock(op, block, kind)
			}
			continue
		}
		// Classified path: probe the first-touch set and every shared
		// shadow once per group, then classify each lane miss against
		// the probe results. The shadows update on every access (their
		// state tracks the stream, not any lane's hits).
		cg := &s.class.groups[gi]
		seen := cg.seen.has(block)
		for _, sh := range cg.shadows {
			sh.hit = sh.lru.access(block)
		}
		for li, c := range g.lanes {
			hit, _ := c.AccessBlock(op, block, kind)
			if !hit {
				s.class.classify(g.idx[li], s.curPred, seen, cg.shadows[cg.laneShadow[li]].hit)
			}
		}
		cg.seen.add(block)
	}
}

// Lanes reports the number of configurations being swept.
func (s *Sweeper) Lanes() int { return len(s.caches) }

// Cache returns lane i's replayed cache (configuration order of
// NewSweeper).
func (s *Sweeper) Cache(i int) *cache.Cache { return s.caches[i] }

// Cycles reports the number of cycles fed so far (trace.Log.Len of the
// equivalent materialized trace).
func (s *Sweeper) Cycles() int64 { return s.cycles }

// MemoryAccesses reports the number of cycles that carried a cache
// command.
func (s *Sweeper) MemoryAccesses() int64 { return s.accesses }

// TimeNS reports the simulated execution time of the fed stream when its
// accesses stall as lane i's cache computed.
func (s *Sweeper) TimeNS(i int) int64 {
	return s.cycles*micro.CycleNS + s.caches[i].StallNS
}

// TimeNoCacheNS reports the simulated time of the fed stream with the
// cache absent.
func (s *Sweeper) TimeNoCacheNS() int64 {
	return s.cycles*micro.CycleNS + s.accesses*cache.MissExtraNS
}

// Improvement computes the Figure 1 performance improvement ratio (in
// percent) for lane i, (Tnc/Tc - 1) * 100. An empty stream (Tc = 0)
// gives 0.
func (s *Sweeper) Improvement(i int) float64 {
	tc := s.TimeNS(i)
	if tc == 0 {
		return 0
	}
	return (float64(s.TimeNoCacheNS())/float64(tc) - 1) * 100
}

// PointAt renders lane i as a Figure 1 sample.
func (s *Sweeper) PointAt(i int) Point {
	return Point{
		Words:       s.caches[i].Config().Words,
		Improvement: s.Improvement(i),
		HitRatio:    s.caches[i].HitRatio(),
	}
}
