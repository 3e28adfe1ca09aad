package cache

import (
	"math/rand"
	"testing"

	"repro/internal/micro"
	"repro/internal/word"
)

// ---- brute-force reference model -----------------------------------------
//
// refModel reimplements the whole cache contract in the most naive way
// possible: way-indexed line slices, explicit recency/arrival lists,
// a bool tree for PLRU, and the victim buffer as a plain LRU-ordered
// slice. It shares no code with the production Cache beyond the timing
// constants, so agreement over random streams checks the real
// implementations (packed PLRU bits, rank-based LRU, FIFO cursors, the
// shared random draw stream) against first-principles behaviour.

type refLine struct {
	tag   uint32
	valid bool
	dirty bool
}

type refSet struct {
	lines []refLine
	order []int  // ReplaceLRU: ways, least recently used first
	fifo  []int  // ReplaceFIFO: ways, oldest arrival first
	plru  []bool // ReplacePLRU: tree nodes 1..assoc-1; true = victim right
}

type refBufEntry struct {
	block uint32
	dirty bool
}

type refModel struct {
	cfg  Config
	rows uint32
	sets []refSet
	rng  uint64
	buf  []refBufEntry // victim buffer, least recently inserted first

	hits, accesses, fills, writeBacks, writeThroughs, victimHits, stall int64
}

func newRefModel(cfg Config) *refModel {
	blocks := cfg.Words / cfg.BlockWords
	rows := uint32(blocks / cfg.Assoc)
	m := &refModel{cfg: cfg, rows: rows, sets: make([]refSet, rows)}
	for i := range m.sets {
		m.sets[i].lines = make([]refLine, cfg.Assoc)
		m.sets[i].plru = make([]bool, cfg.Assoc)
	}
	m.rng = cfg.Seed
	if m.rng == 0 {
		m.rng = DefaultRandomSeed
	}
	return m
}

func (m *refModel) draw() uint64 {
	m.rng += 0x9E3779B97F4A7C15
	z := m.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func remove(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

func (m *refModel) touch(s *refSet, way int) {
	switch m.cfg.Replacement {
	case ReplaceLRU:
		s.order = append(remove(s.order, way), way)
	case ReplaceFIFO, ReplaceRandom:
		// hits change nothing
	case ReplacePLRU:
		m.plruWalk(s, way)
	}
}

func (m *refModel) fill(s *refSet, way int) {
	switch m.cfg.Replacement {
	case ReplaceLRU:
		s.order = append(remove(s.order, way), way)
	case ReplaceFIFO:
		s.fifo = append(remove(s.fifo, way), way)
	case ReplaceRandom:
	case ReplacePLRU:
		m.plruWalk(s, way)
	}
}

func (m *refModel) victimWay(s *refSet) int {
	switch m.cfg.Replacement {
	case ReplaceLRU:
		return s.order[0]
	case ReplaceFIFO:
		return s.fifo[0]
	case ReplaceRandom:
		return int(m.draw() % uint64(m.cfg.Assoc))
	case ReplacePLRU:
		n, lo, hi := 1, 0, m.cfg.Assoc
		for n < m.cfg.Assoc {
			mid := (lo + hi) / 2
			if s.plru[n] {
				n, lo = 2*n+1, mid
			} else {
				n, hi = 2*n, mid
			}
		}
		return lo
	}
	panic("unreachable")
}

// plruWalk steers every tree bit on the way's path to point at the
// other half (interval halving — equivalent to the packed bit walk).
func (m *refModel) plruWalk(s *refSet, way int) {
	n, lo, hi := 1, 0, m.cfg.Assoc
	for n < m.cfg.Assoc {
		mid := (lo + hi) / 2
		if way < mid {
			s.plru[n] = true // accessed left: victim right
			n, hi = 2*n, mid
		} else {
			s.plru[n] = false // accessed right: victim left
			n, lo = 2*n+1, mid
		}
	}
}

func (m *refModel) access(op micro.CacheOp, block uint32) (bool, int64) {
	m.accesses++
	row := block % m.rows
	tag := block / m.rows
	s := &m.sets[row]

	for w := range s.lines {
		l := &s.lines[w]
		if l.valid && l.tag == tag {
			m.hits++
			m.touch(s, w)
			var stall int64
			if op != micro.OpRead {
				if m.cfg.Policy == StoreThrough {
					stall = WriteThroughNS
					m.writeThroughs++
				} else {
					l.dirty = true
				}
			}
			m.stall += stall
			return true, stall
		}
	}

	w := -1
	for i := range s.lines {
		if !s.lines[i].valid {
			w = i
			break
		}
	}
	if w < 0 {
		w = m.victimWay(s)
	}
	l := &s.lines[w]
	var stall int64
	if m.cfg.Victims == 0 {
		if l.valid && l.dirty && m.cfg.Policy == StoreIn {
			stall += BlockTransferNS
			m.writeBacks++
		}
		if op != micro.OpWriteStack {
			stall += MissExtraNS
			m.fills++
		}
		*l = refLine{tag: tag, valid: true}
	} else {
		fromBuf, bufDirty := false, false
		for i, e := range m.buf {
			if e.block == block {
				fromBuf, bufDirty = true, e.dirty
				m.buf = append(m.buf[:i], m.buf[i+1:]...)
				break
			}
		}
		if l.valid {
			evicted := l.tag*m.rows + row
			if len(m.buf) == m.cfg.Victims {
				if m.buf[0].dirty {
					stall += BlockTransferNS
					m.writeBacks++
				}
				m.buf = m.buf[1:]
			}
			m.buf = append(m.buf, refBufEntry{evicted, l.dirty && m.cfg.Policy == StoreIn})
		}
		if fromBuf {
			m.victimHits++
			stall += VictimHitNS
			*l = refLine{tag: tag, valid: true, dirty: bufDirty}
		} else {
			if op != micro.OpWriteStack {
				stall += MissExtraNS
				m.fills++
			}
			*l = refLine{tag: tag, valid: true}
		}
	}
	if op != micro.OpRead {
		if m.cfg.Policy == StoreThrough {
			stall += WriteThroughNS
			m.writeThroughs++
		} else {
			l.dirty = true
		}
	}
	m.fill(s, w)
	m.stall += stall
	return false, stall
}

// compareCounters checks every statistic the sweeps report.
func compareCounters(t *testing.T, c *Cache, m *refModel) {
	t.Helper()
	if c.Total.Hits != m.hits || c.Total.Accesses != m.accesses {
		t.Errorf("hits/accesses = %d/%d, ref %d/%d", c.Total.Hits, c.Total.Accesses, m.hits, m.accesses)
	}
	if c.Fills != m.fills || c.WriteBacks != m.writeBacks || c.WriteThroughs != m.writeThroughs {
		t.Errorf("fills/writeBacks/writeThroughs = %d/%d/%d, ref %d/%d/%d",
			c.Fills, c.WriteBacks, c.WriteThroughs, m.fills, m.writeBacks, m.writeThroughs)
	}
	if c.VictimHits != m.victimHits || c.StallNS != m.stall {
		t.Errorf("victimHits/stall = %d/%d, ref %d/%d", c.VictimHits, c.StallNS, m.victimHits, m.stall)
	}
}

// propertyGeometries is every geometry family the property suite runs:
// all Validate-accepted, deliberately tiny so random streams force
// constant eviction.
var propertyGeometries = []Config{
	{Words: 4, Assoc: 1, BlockWords: 4},   // single frame
	{Words: 8, Assoc: 2, BlockWords: 4},   // one row, two ways
	{Words: 64, Assoc: 4, BlockWords: 4},  // 4 rows x 4 ways
	{Words: 64, Assoc: 16, BlockWords: 4}, // one row, 16 ways
	{Words: 128, Assoc: 8, BlockWords: 2}, // 8 rows x 8 ways, 2-word blocks
	{Words: 256, Assoc: 2, BlockWords: 8}, // 16 rows, 8-word blocks
}

var propertyOps = []micro.CacheOp{micro.OpRead, micro.OpRead, micro.OpWrite, micro.OpWriteStack}

// TestReplacerPropertyVsReference drives every replacement policy (and
// the victim buffer) on every geometry with pseudo-random command
// streams and demands access-by-access agreement with the brute-force
// reference model.
func TestReplacerPropertyVsReference(t *testing.T) {
	for _, geo := range propertyGeometries {
		for repl := ReplaceLRU; repl <= ReplacePLRU; repl++ {
			for _, pol := range []Policy{StoreIn, StoreThrough} {
				for _, victims := range []int{0, 4} {
					cfg := geo
					cfg.Policy = pol
					cfg.Replacement = repl
					cfg.Victims = victims
					if repl == ReplaceRandom {
						cfg.Seed = 12345
					}
					if err := cfg.Validate(); err != nil {
						t.Fatalf("%v: %v", cfg, err)
					}
					t.Run(cfg.String(), func(t *testing.T) {
						c := New(cfg)
						m := newRefModel(cfg)
						r := rand.New(rand.NewSource(int64(geo.Words)*7 + int64(repl)))
						blocks := uint32(3 * geo.Words / geo.BlockWords) // ~3x capacity working set
						for i := 0; i < 20000; i++ {
							op := propertyOps[r.Intn(len(propertyOps))]
							block := uint32(r.Intn(int(blocks)))
							h1, s1 := c.AccessBlock(op, block, word.AreaHeap)
							h2, s2 := m.access(op, block)
							if h1 != h2 || s1 != s2 {
								t.Fatalf("access %d (%v block %d): cache=(%v,%d) ref=(%v,%d)",
									i, op, block, h1, s1, h2, s2)
							}
						}
						compareCounters(t, c, m)
					})
				}
			}
		}
	}
}

// TestPLRUEqualsLRUAtTwoWays pins the PLRU tree to exact LRU where they
// provably coincide (one tree bit is the LRU bit).
func TestPLRUEqualsLRUAtTwoWays(t *testing.T) {
	lru := New(Config{Words: 8, Assoc: 2, BlockWords: 4})
	plru := New(Config{Words: 8, Assoc: 2, BlockWords: 4, Replacement: ReplacePLRU})
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		block := uint32(r.Intn(6))
		h1, s1 := lru.AccessBlock(micro.OpRead, block, word.AreaHeap)
		h2, s2 := plru.AccessBlock(micro.OpRead, block, word.AreaHeap)
		if h1 != h2 || s1 != s2 {
			t.Fatalf("access %d block %d: lru=(%v,%d) plru=(%v,%d)", i, block, h1, s1, h2, s2)
		}
	}
}

// TestRandomReplacementDeterminism checks the seeded-random policy is a
// pure function of (seed, access stream): same seed twice is identical,
// Reset rewinds the draw stream, and the zero seed falls back to the
// documented default rather than a time- or address-dependent source.
func TestRandomReplacementDeterminism(t *testing.T) {
	cfg := Config{Words: 64, Assoc: 4, BlockWords: 4, Replacement: ReplaceRandom, Seed: 7}
	run := func(c *Cache) []bool {
		r := rand.New(rand.NewSource(5))
		var hits []bool
		for i := 0; i < 3000; i++ {
			h, _ := c.AccessBlock(micro.OpRead, uint32(r.Intn(64)), word.AreaHeap)
			hits = append(hits, h)
		}
		return hits
	}
	a, b := run(New(cfg)), run(New(cfg))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at access %d", i)
		}
	}
	c := New(cfg)
	first := run(c)
	c.Reset()
	second := run(c)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("Reset did not rewind the draw stream (access %d)", i)
		}
	}
	zero := cfg
	zero.Seed = 0
	z1, z2 := run(New(zero)), run(New(zero))
	for i := range z1 {
		if z1[i] != z2[i] {
			t.Fatalf("zero seed nondeterministic at access %d", i)
		}
	}
}

// TestParseReplacement round-trips every policy name and rejects junk.
func TestParseReplacement(t *testing.T) {
	for r := ReplaceLRU; r <= ReplacePLRU; r++ {
		got, err := ParseReplacement(r.String())
		if err != nil || got != r {
			t.Errorf("round trip %v: got %v, %v", r, got, err)
		}
	}
	if _, err := ParseReplacement("mru"); err == nil {
		t.Error("ParseReplacement accepted an unknown policy")
	}
}

// TestValidateLabAxes extends the Validate table to the lab axes.
func TestValidateLabAxes(t *testing.T) {
	bad := []Config{
		{Words: 96, Assoc: 3, BlockWords: 4, Replacement: ReplacePLRU}, // non-pow2 ways under plru
		{Words: 64, Assoc: 4, BlockWords: 4, Replacement: Replacement(9)},
		{Words: 64, Assoc: 4, BlockWords: 4, Victims: -1},
		{Words: 64, Assoc: 4, BlockWords: 4, Victims: 65},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid lab configuration", c)
		}
	}
	good := []Config{
		{Words: 96, Assoc: 3, BlockWords: 4, Replacement: ReplaceFIFO}, // non-pow2 ways fine off plru
		{Words: 64, Assoc: 4, BlockWords: 4, Replacement: ReplacePLRU, Victims: 64},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v): %v", c, err)
		}
	}
}

// TestConfigStringLabAxes pins the String forms: legacy configurations
// keep the legacy spelling exactly (golden files depend on it), lab
// axes append.
func TestConfigStringLabAxes(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{PSI, "8192w/2-set/4w-block/store-in"},
		{Config{Words: 64, Assoc: 4, BlockWords: 4, Replacement: ReplaceFIFO},
			"64w/4-set/4w-block/store-in/fifo"},
		{Config{Words: 64, Assoc: 4, BlockWords: 4, Replacement: ReplaceRandom, Seed: 3},
			"64w/4-set/4w-block/store-in/random@3"},
		{Config{Words: 64, Assoc: 4, BlockWords: 4, Replacement: ReplaceRandom},
			"64w/4-set/4w-block/store-in/random"},
		{Config{Words: 64, Assoc: 2, BlockWords: 4, Policy: StoreThrough, Victims: 8},
			"64w/2-set/4w-block/store-through/victim8"},
	}
	for _, tc := range cases {
		if got := tc.cfg.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

// TestWaysAccessor pins the satellite accessor to the field it renames.
func TestWaysAccessor(t *testing.T) {
	if PSI.Ways() != 2 || PSI.Ways() != PSI.Assoc {
		t.Errorf("PSI.Ways() = %d, want 2", PSI.Ways())
	}
}
