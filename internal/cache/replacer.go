package cache

import "fmt"

// Replacement selects the replacement policy of a cache configuration.
// The real PSI implements LRU (exact for its two ways); the other
// policies exist for the cache-architecture lab sweeps.
type Replacement uint8

// Replacement policies.
const (
	// ReplaceLRU is exact least-recently-used at every associativity.
	// (At one or two ways it is the machine's original single-bit
	// scheme, which is exact LRU there.)
	ReplaceLRU Replacement = iota
	// ReplaceFIFO evicts in fill order, ignoring hits.
	ReplaceFIFO
	// ReplaceRandom evicts a pseudo-random valid way, drawn from one
	// deterministic splitmix64 stream seeded by Config.Seed. The stream
	// advances only when a victim among valid ways is needed, so the
	// draw sequence is a pure function of the access stream.
	ReplaceRandom
	// ReplacePLRU is tree-based pseudo-LRU (one bit per internal node
	// of a binary tree over the ways). Requires a power-of-two
	// associativity of at most 64. At two ways it equals exact LRU.
	ReplacePLRU
)

// replacementNames is the canonical CLI spelling of each policy.
var replacementNames = [...]string{"lru", "fifo", "random", "plru"}

// String names the replacement policy.
func (r Replacement) String() string {
	if int(r) < len(replacementNames) {
		return replacementNames[r]
	}
	return fmt.Sprintf("replacement(%d)", uint8(r))
}

// ParseReplacement resolves a CLI policy name (as printed by String).
func ParseReplacement(s string) (Replacement, error) {
	for i, n := range replacementNames {
		if s == n {
			return Replacement(i), nil
		}
	}
	return 0, fmt.Errorf("cache: unknown replacement policy %q (want lru, fifo, random or plru)", s)
}

// Replacer is the replacement decision of a set-associative cache,
// split from the array bookkeeping: the Cache owns the lines and the
// valid/dirty bits, the Replacer owns only the recency state. The Cache
// calls Touch on every hit and Fill after every miss installation, and
// asks Victim for an eviction way only when every way of the row is
// valid (invalid ways are always filled first, in way order, by the
// Cache itself — identical to the original inlined behaviour).
type Replacer interface {
	// Touch records a hit on way of row.
	Touch(row uint32, way int)
	// Fill records that way of row was (re)filled after a miss.
	Fill(row uint32, way int)
	// Victim chooses the way of row to evict. Only called when every
	// way of the row holds a valid block.
	Victim(row uint32) int
	// Reset restores the initial state (for Cache.Reset).
	Reset()
}

// newReplacer builds the replacement state for a validated
// configuration. ReplaceLRU at associativity <= 2 returns nil: the
// Cache keeps its original inlined single-bit path there (exact LRU for
// two ways, trivial for one), so the machine's own 8K/2-way cache pays
// nothing for the indirection and legacy sweeps reproduce byte-for-byte.
func newReplacer(cfg Config, rows uint32) Replacer {
	switch cfg.Replacement {
	case ReplaceLRU:
		if cfg.Assoc <= 2 {
			return nil
		}
		return newTrueLRU(int(rows), cfg.Assoc)
	case ReplaceFIFO:
		return &fifoReplacer{cursor: make([]uint8, rows), assoc: cfg.Assoc}
	case ReplaceRandom:
		return newRandomReplacer(cfg.Seed, cfg.Assoc)
	case ReplacePLRU:
		return &plruReplacer{bits: make([]uint64, rows), assoc: cfg.Assoc}
	}
	panic(fmt.Sprintf("cache: unknown replacement %d", cfg.Replacement))
}

// ---- exact LRU -----------------------------------------------------------

// trueLRU keeps one recency rank per line: within a row the ranks of
// the touched ways form a descending chain (assoc-1 = most recent), so
// the victim is the way with the minimum rank. O(assoc) per touch,
// which is fine for a trace simulator.
type trueLRU struct {
	rank  []uint8 // rows × assoc
	assoc int
}

func newTrueLRU(rows, assoc int) *trueLRU {
	return &trueLRU{rank: make([]uint8, rows*assoc), assoc: assoc}
}

func (l *trueLRU) Touch(row uint32, way int) {
	r := l.rank[int(row)*l.assoc : int(row+1)*l.assoc]
	old := r[way]
	for i := range r {
		if r[i] > old {
			r[i]--
		}
	}
	r[way] = uint8(l.assoc - 1)
}

func (l *trueLRU) Fill(row uint32, way int) { l.Touch(row, way) }

func (l *trueLRU) Victim(row uint32) int {
	r := l.rank[int(row)*l.assoc : int(row+1)*l.assoc]
	vi, min := 0, r[0]
	for i := 1; i < l.assoc; i++ {
		if r[i] < min {
			vi, min = i, r[i]
		}
	}
	return vi
}

func (l *trueLRU) Reset() {
	for i := range l.rank {
		l.rank[i] = 0
	}
}

// ---- FIFO ----------------------------------------------------------------

// fifoReplacer keeps one next-victim cursor per row. Hits do not move
// the cursor; a fill at the cursor advances it, so blocks leave in the
// order they arrived. (Warm-up fills of invalid ways run in way order,
// which is cursor order, so the cursor stays consistent from cold.)
type fifoReplacer struct {
	cursor []uint8
	assoc  int
}

func (f *fifoReplacer) Touch(uint32, int) {}

func (f *fifoReplacer) Fill(row uint32, way int) {
	if int(f.cursor[row]) == way {
		f.cursor[row] = uint8((way + 1) % f.assoc)
	}
}

func (f *fifoReplacer) Victim(row uint32) int { return int(f.cursor[row]) }

func (f *fifoReplacer) Reset() {
	for i := range f.cursor {
		f.cursor[i] = 0
	}
}

// ---- seeded random -------------------------------------------------------

// DefaultRandomSeed seeds ReplaceRandom when Config.Seed is zero, so
// the zero configuration is still fully deterministic.
const DefaultRandomSeed = 0x9E3779B97F4A7C15

// randomReplacer draws victims from one deterministic splitmix64
// stream (the same generator the fault injector uses). The stream
// advances only in Victim, never on hits or warm-up fills, so two
// caches fed the same access stream consume identical draws.
type randomReplacer struct {
	state uint64
	seed  uint64 // initial state, kept for Reset
	assoc int
}

func newRandomReplacer(seed uint64, assoc int) *randomReplacer {
	if seed == 0 {
		seed = DefaultRandomSeed
	}
	return &randomReplacer{state: seed, seed: seed, assoc: assoc}
}

// next is splitmix64: a 64-bit counter-mix generator with full period.
func (r *randomReplacer) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *randomReplacer) Touch(uint32, int) {}
func (r *randomReplacer) Fill(uint32, int)  {}

func (r *randomReplacer) Victim(uint32) int {
	return int(r.next() % uint64(r.assoc))
}

func (r *randomReplacer) Reset() { r.state = r.seed }

// ---- tree pseudo-LRU -----------------------------------------------------

// plruReplacer keeps assoc-1 tree bits per row, packed into one uint64
// (heap layout: node 1 is the root, node n's children are 2n and 2n+1,
// ways are the leaves). Each bit points toward the pseudo-least-recently
// used half: an access flips the bits on its path to point away from
// the accessed way; the victim walk follows the bits down.
type plruReplacer struct {
	bits  []uint64
	assoc int
}

func (p *plruReplacer) Touch(row uint32, way int) {
	b := p.bits[row]
	// Walk root -> leaf using way's bits from the top: at depth d the
	// branch is bit (levels-1-d) of way.
	levels := 0
	for 1<<levels < p.assoc {
		levels++
	}
	n := 1
	for d := levels - 1; d >= 0; d-- {
		branch := (way >> d) & 1
		if branch == 1 {
			b &^= 1 << n // LRU side is now the left half
		} else {
			b |= 1 << n // LRU side is now the right half
		}
		n = n*2 + branch
	}
	p.bits[row] = b
}

func (p *plruReplacer) Fill(row uint32, way int) { p.Touch(row, way) }

func (p *plruReplacer) Victim(row uint32) int {
	b := p.bits[row]
	n := 1
	for n < p.assoc {
		branch := int(b >> n & 1)
		n = n*2 + branch
	}
	return n - p.assoc
}

func (p *plruReplacer) Reset() {
	for i := range p.bits {
		p.bits[i] = 0
	}
}
