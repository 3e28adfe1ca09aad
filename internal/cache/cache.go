// Package cache implements the PSI cache memory and its simulator (the
// paper's PMMS tool). The machine configuration is 8K words, two-way
// set-associative, store-in (write-back), four-word blocks, with a
// dedicated Write-Stack command that allocates on a write miss without
// reading the block in (used for continuous pushes to a stack top).
//
// The simulator is parameterized over capacity, associativity and write
// policy so the Figure 1 capacity sweep and the 1-set / store-through
// ablations can be replayed from traces. Beyond the paper's design
// point, the replacement decision is pluggable (Replacement: LRU, FIFO,
// seeded random, tree-PLRU) and an optional fully-associative victim
// buffer (Config.Victims) can sit between the cache and main memory —
// the axes of the cache-architecture lab sweeps.
package cache

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/micro"
	"repro/internal/word"
)

// Policy selects the write policy.
type Policy uint8

// Write policies.
const (
	StoreIn      Policy = iota // write-back: dirty blocks written on eviction
	StoreThrough               // write-through: every write also goes to memory
)

// String names the policy.
func (p Policy) String() string {
	if p == StoreIn {
		return "store-in"
	}
	return "store-through"
}

// Timing constants from the paper's cache specification, in nanoseconds.
// A hit completes within the 200 ns microcycle (no stall). A miss takes
// 800 ns in total, i.e. a 600 ns stall beyond the cycle, and moving a
// four-word block between cache and main memory takes 800 ns.
const (
	HitNS           = 0
	MissExtraNS     = 600
	BlockTransferNS = 800
	// WriteThroughNS is the per-write stall under the store-through
	// policy: a one-deep write buffer hides part of the 800 ns memory
	// write, leaving this much on the critical path.
	WriteThroughNS = 250
)

// Config describes a cache geometry and policy.
type Config struct {
	Words int // total capacity in words
	// Assoc is the number of ways per set — what the paper calls
	// "sets", as in "two 4K-word sets" (1 = direct mapped, 2 = PSI).
	// The cache has Words/BlockWords/Assoc rows of Assoc ways each.
	Assoc      int
	BlockWords int // words per block (PSI: 4)
	Policy     Policy
	// Replacement selects the replacement policy (zero = ReplaceLRU,
	// the machine's policy).
	Replacement Replacement
	// Victims adds a fully-associative victim buffer of that many
	// blocks between the cache and main memory (0 = none, the machine).
	Victims int
	// Seed seeds the ReplaceRandom draw stream (0 = DefaultRandomSeed;
	// either way the policy is fully deterministic).
	Seed uint64
}

// Ways reports the associativity — ways per set. It exists to give the
// ambiguous Assoc field (the paper's "sets") an unambiguous reading.
func (c Config) Ways() int { return c.Assoc }

// PSI is the configuration of the real machine.
var PSI = Config{Words: 8192, Assoc: 2, BlockWords: 4, Policy: StoreIn}

// PSIWith is the PSI configuration with a user's geometry overrides
// applied: words and ways replace the capacity and associativity when
// nonzero, and storeThrough switches the write policy. The psi library
// and the daemon both build their cache from it.
func PSIWith(words, ways int, storeThrough bool) Config {
	c := PSI
	if words != 0 {
		c.Words = words
	}
	if ways != 0 {
		c.Assoc = ways
	}
	if storeThrough {
		c.Policy = StoreThrough
	}
	return c
}

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.BlockWords <= 0 || c.Words <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	blocks := c.Words / c.BlockWords
	if blocks*c.BlockWords != c.Words {
		return fmt.Errorf("cache: capacity %d not a multiple of block size %d", c.Words, c.BlockWords)
	}
	if blocks%c.Assoc != 0 {
		return fmt.Errorf("cache: %d blocks not divisible into %d sets", blocks, c.Assoc)
	}
	rows := blocks / c.Assoc
	if rows&(rows-1) != 0 {
		return fmt.Errorf("cache: %d rows is not a power of two", rows)
	}
	switch c.Replacement {
	case ReplaceLRU:
		if c.Assoc > 256 {
			return fmt.Errorf("cache: lru supports at most 256 ways, got %d", c.Assoc)
		}
	case ReplaceFIFO, ReplaceRandom:
		if c.Assoc > 256 {
			return fmt.Errorf("cache: %s supports at most 256 ways, got %d", c.Replacement, c.Assoc)
		}
	case ReplacePLRU:
		if c.Assoc&(c.Assoc-1) != 0 {
			return fmt.Errorf("cache: plru needs a power-of-two associativity, got %d", c.Assoc)
		}
		if c.Assoc > 64 {
			return fmt.Errorf("cache: plru supports at most 64 ways, got %d", c.Assoc)
		}
	default:
		return fmt.Errorf("cache: unknown replacement policy %d", c.Replacement)
	}
	if c.Victims < 0 || c.Victims > 64 {
		return fmt.Errorf("cache: victim buffer must have 0..64 entries, got %d", c.Victims)
	}
	return nil
}

func (c Config) String() string {
	s := fmt.Sprintf("%dw/%d-set/%dw-block/%s", c.Words, c.Assoc, c.BlockWords, c.Policy)
	// The legacy configurations (LRU, no victim buffer) keep the legacy
	// spelling exactly; the lab axes append only when in use.
	if c.Replacement != ReplaceLRU {
		s += "/" + c.Replacement.String()
		if c.Replacement == ReplaceRandom && c.Seed != 0 {
			s += fmt.Sprintf("@%d", c.Seed)
		}
	}
	if c.Victims > 0 {
		s += fmt.Sprintf("/victim%d", c.Victims)
	}
	return s
}

// line is one cache block frame.
type line struct {
	tag   uint32
	valid bool
	dirty bool
}

// AreaStats accumulates per-area hit statistics for Table 5.
type AreaStats struct {
	Accesses int64
	Hits     int64
}

// HitRatio reports hits/accesses (1 when idle, matching an untouched
// area).
func (a AreaStats) HitRatio() float64 {
	if a.Accesses == 0 {
		return 1
	}
	return float64(a.Hits) / float64(a.Accesses)
}

// Cache simulates one cache.
type Cache struct {
	cfg      Config
	rows     uint32
	rowShift uint32   // log2(BlockWords)
	tagShift uint32   // log2(rows): tag = block >> tagShift (rows is a power of two)
	lines    []line   // rows × assoc
	lru      []uint8  // most-recently-used way per row (nil-rep fast path)
	rep      Replacer // replacement state; nil = inlined LRU (assoc <= 2)
	vb       *victimBuffer
	// Stats
	Area    [5]AreaStats // per area kind
	Total   AreaStats
	StallNS int64 // accumulated stall time beyond the base cycles
	// write-through traffic accounting
	WriteThroughs int64
	Fills         int64 // block read-ins
	WriteBacks    int64 // dirty evictions
	VictimHits    int64 // misses served by the victim buffer

	inj *fault.Injector // nil outside chaos runs
}

// SetInjector attaches (or with nil detaches) the fault injector whose
// CacheAccess hook models the tag-store parity checker. Wired by the
// machine on New/Reset; Clone never copies it.
func (c *Cache) SetInjector(inj *fault.Injector) { c.inj = inj }

// New builds a cache; the configuration must validate (callers on user
// input paths run Config.Validate first). The panic on an invalid
// geometry is an invariant check, contained at the session boundary.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	blocks := cfg.Words / cfg.BlockWords
	rows := uint32(blocks / cfg.Assoc)
	shift := uint32(0)
	for 1<<shift < cfg.BlockWords {
		shift++
	}
	tagShift := uint32(0)
	for 1<<tagShift < rows {
		tagShift++
	}
	return &Cache{
		cfg:      cfg,
		rows:     rows,
		rowShift: shift,
		tagShift: tagShift,
		lines:    make([]line, blocks),
		lru:      make([]uint8, rows),
		rep:      newReplacer(cfg, rows),
		vb:       newVictimBuffer(cfg.Victims),
	}
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// BlockShift reports log2(BlockWords): physical address >> BlockShift is
// the block number AccessBlock takes. Fan-out replay groups caches of
// equal block size so the shift is computed once per access.
func (c *Cache) BlockShift() uint32 { return c.rowShift }

// Clone deep-copies the cache: geometry, contents, statistics and the
// full replacement-policy state (LRU order, PLRU bits, FIFO cursors,
// the random draw position, the victim buffer). The clone and the
// original then evolve independently — accesses to one never disturb
// the other. The fault injector is never copied (injection state is
// per-machine). For a fresh, empty instance of the same configuration,
// Clone then Reset (or cache.New again).
func (c *Cache) Clone() *Cache {
	n := *c
	n.lines = append([]line(nil), c.lines...)
	n.lru = append([]uint8(nil), c.lru...)
	if c.rep != nil {
		n.rep = c.rep.Clone()
	}
	if c.vb != nil {
		n.vb = c.vb.clone()
	}
	n.inj = nil
	return &n
}

// Access performs one cache command against physical word address phys;
// kind attributes the access to an area for the statistics. It returns
// whether the access hit and the stall time in nanoseconds beyond the
// issuing microcycle.
func (c *Cache) Access(op micro.CacheOp, phys uint32, kind word.AreaID) (hit bool, stallNS int64) {
	return c.AccessBlock(op, phys>>c.rowShift, kind.Kind())
}

// AccessBlock is Access with the per-access address math hoisted out:
// block is the physical block number (phys >> BlockShift) and kind an
// already-reduced area kind (word.AreaID.Kind). Multi-configuration
// replay computes both once per trace record and shares them across
// every cache of equal block size.
func (c *Cache) AccessBlock(op micro.CacheOp, block uint32, kind word.AreaID) (hit bool, stallNS int64) {
	if c.inj != nil {
		c.inj.CacheAccess(block)
	}
	row := block & (c.rows - 1)
	base := int(row) * c.cfg.Assoc
	ways := c.lines[base : base+c.cfg.Assoc]
	tag := block >> c.tagShift

	// Search for a hit (in line here: the hit path runs on nearly every
	// simulated memory access, and a call per access is measurable).
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			c.touch(row, i)
			var stall int64
			if op != micro.OpRead && c.cfg.Policy == StoreThrough {
				stall = WriteThroughNS
				c.WriteThroughs++
			} else if op != micro.OpRead {
				ways[i].dirty = true
			}
			c.Area[kind].Accesses++
			c.Total.Accesses++
			c.Area[kind].Hits++
			c.Total.Hits++
			c.StallNS += stall
			return true, stall
		}
	}

	stallNS = c.miss(op, block, row, tag, ways)
	c.Area[kind].Accesses++
	c.Total.Accesses++
	c.StallNS += stallNS
	return false, stallNS
}

// miss handles the replacement path of one access: victim selection,
// write-back, victim-buffer probe, fill and the resulting stall time.
func (c *Cache) miss(op micro.CacheOp, block, row, tag uint32, ways []line) int64 {
	// Choose a victim.
	vi := c.victim(row)
	v := &ways[vi]
	var stall int64
	if c.vb == nil {
		if v.valid && v.dirty && c.cfg.Policy == StoreIn {
			stall += BlockTransferNS
			c.WriteBacks++
		}
		switch op {
		case micro.OpRead, micro.OpWrite:
			// Block read-in.
			stall += MissExtraNS
			c.Fills++
		case micro.OpWriteStack:
			// Allocate without read-in: the block is about to be fully
			// overwritten by pushes, so no transfer is needed.
		}
		v.valid = true
		v.tag = tag
		v.dirty = false
	} else {
		// Victim-buffer path: the requested block may be parked in the
		// buffer (probe first, freeing its slot), and the evicted block
		// parks there instead of leaving — its write-back is deferred
		// until it falls out of the buffer.
		restoredDirty, inBuffer := c.vb.take(block)
		if v.valid {
			evicted := v.tag<<c.tagShift | row
			if c.vb.insert(evicted, v.dirty && c.cfg.Policy == StoreIn) {
				stall += BlockTransferNS
				c.WriteBacks++
			}
		}
		if inBuffer {
			c.VictimHits++
			stall += VictimHitNS
			v.valid = true
			v.tag = tag
			v.dirty = restoredDirty
		} else {
			switch op {
			case micro.OpRead, micro.OpWrite:
				stall += MissExtraNS
				c.Fills++
			case micro.OpWriteStack:
			}
			v.valid = true
			v.tag = tag
			v.dirty = false
		}
	}
	if op != micro.OpRead {
		if c.cfg.Policy == StoreThrough {
			stall += WriteThroughNS
			c.WriteThroughs++
		} else {
			v.dirty = true
		}
	}
	if c.rep != nil {
		c.rep.Fill(row, vi)
	} else {
		c.lru[row] = uint8(vi)
	}
	return stall
}

// touch marks way i of row as most recently used. The nil-replacer
// path is the machine's original single-bit scheme (exact LRU for the
// default two ways); configured policies route through the Replacer.
func (c *Cache) touch(row uint32, i int) {
	if c.rep != nil {
		c.rep.Touch(row, i)
		return
	}
	c.lru[row] = uint8(i)
}

// victim selects the way to replace in row. Invalid ways are always
// filled first, in way order, regardless of policy; only a full row
// asks the replacement policy for an eviction.
func (c *Cache) victim(row uint32) int {
	base := int(row) * c.cfg.Assoc
	for i := 0; i < c.cfg.Assoc; i++ {
		if !c.lines[base+i].valid {
			return i
		}
	}
	if c.rep != nil {
		return c.rep.Victim(row)
	}
	if c.cfg.Assoc == 1 {
		return 0
	}
	// Not most-recently-used (exact LRU for 2 ways).
	mru := int(c.lru[row])
	return (mru + 1) % c.cfg.Assoc
}

// HitRatio reports the overall hit ratio.
func (c *Cache) HitRatio() float64 { return c.Total.HitRatio() }

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	for i := range c.lru {
		c.lru[i] = 0
	}
	if c.rep != nil {
		c.rep.Reset()
	}
	if c.vb != nil {
		c.vb.reset()
	}
	c.Area = [5]AreaStats{}
	c.Total = AreaStats{}
	c.StallNS = 0
	c.WriteThroughs = 0
	c.Fills = 0
	c.WriteBacks = 0
	c.VictimHits = 0
}
