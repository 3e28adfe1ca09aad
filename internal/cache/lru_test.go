package cache

import (
	"testing"

	"repro/internal/micro"
	"repro/internal/word"
)

// step is one scripted access with its expected outcome.
type step struct {
	op    micro.CacheOp
	phys  uint32
	hit   bool
	stall int64
}

func runScript(t *testing.T, cfg Config, steps []step) *Cache {
	t.Helper()
	c := mk(t, cfg)
	for i, s := range steps {
		hit, stall := c.Access(s.op, s.phys, word.AreaHeap)
		if hit != s.hit || stall != s.stall {
			t.Fatalf("step %d (%v @%d): hit=%v stall=%d, want hit=%v stall=%d",
				i, s.op, s.phys, hit, stall, s.hit, s.stall)
		}
	}
	return c
}

// TestLRUEdgeCases scripts the touch/victim corner cases: full-set
// eviction order, the single-way degenerate case, and MRU protection
// in a two-way set.
func TestLRUEdgeCases(t *testing.T) {
	// One row of two ways, 4-word blocks: blocks 0, 8, 16, 24 all
	// collide on row 0.
	oneRow2Way := Config{Words: 8, Assoc: 2, BlockWords: 4, Policy: StoreIn}
	// Direct-mapped, one row: every block maps to the single frame.
	oneRow1Way := Config{Words: 4, Assoc: 1, BlockWords: 4, Policy: StoreIn}

	tests := []struct {
		name  string
		cfg   Config
		steps []step
	}{
		{
			// With both ways full, the victim must be the least
			// recently used way — repeatedly, as eviction rotates the
			// set contents.
			name: "full-set eviction order",
			cfg:  oneRow2Way,
			steps: []step{
				{micro.OpRead, 0, false, MissExtraNS},  // way0 <- b0
				{micro.OpRead, 8, false, MissExtraNS},  // way1 <- b1 (MRU)
				{micro.OpRead, 16, false, MissExtraNS}, // evicts b0 (LRU)
				{micro.OpRead, 8, true, 0},             // b1 survived
				{micro.OpRead, 16, true, 0},            // b2 resident, now MRU
				{micro.OpRead, 0, false, MissExtraNS},  // evicts b1
				{micro.OpRead, 16, true, 0},            // b2 still resident
				{micro.OpRead, 8, false, MissExtraNS},  // b1 was evicted
			},
		},
		{
			// A hit must promote the way to MRU, protecting it from the
			// next eviction.
			name: "touch protects most recent",
			cfg:  oneRow2Way,
			steps: []step{
				{micro.OpRead, 0, false, MissExtraNS}, // way0 <- b0
				{micro.OpRead, 8, false, MissExtraNS}, // way1 <- b1
				{micro.OpRead, 0, true, 0},            // touch b0: b1 is LRU
				{micro.OpRead, 16, false, MissExtraNS},
				{micro.OpRead, 0, true, 0},            // b0 protected
				{micro.OpRead, 8, false, MissExtraNS}, // b1 was the victim
			},
		},
		{
			// Assoc == 1: there is no choice of victim; every colliding
			// block replaces the only frame, and a re-read of the
			// evicted block misses again.
			name: "single-way degenerate case",
			cfg:  oneRow1Way,
			steps: []step{
				{micro.OpRead, 0, false, MissExtraNS},
				{micro.OpRead, 0, true, 0},
				{micro.OpRead, 4, false, MissExtraNS}, // replaces b0
				{micro.OpRead, 0, false, MissExtraNS}, // replaces b1
				{micro.OpRead, 4, false, MissExtraNS},
			},
		},
		{
			// Invalid ways fill before any eviction happens, in way
			// order, even when an earlier way is LRU.
			name: "cold ways fill before eviction",
			cfg:  oneRow2Way,
			steps: []step{
				{micro.OpRead, 0, false, MissExtraNS}, // way0 <- b0
				{micro.OpRead, 0, true, 0},
				{micro.OpRead, 8, false, MissExtraNS}, // way1 (invalid), no eviction
				{micro.OpRead, 0, true, 0},            // b0 still resident
				{micro.OpRead, 8, true, 0},
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			runScript(t, tc.cfg, tc.steps)
		})
	}
}

// TestDirtyWriteBackAccounting scripts dirty-block accounting under both
// write policies: store-in pays a block transfer when a dirty block is
// evicted (and only then); store-through never holds dirty blocks, so
// evictions are free but every write pays the write-buffer stall.
func TestDirtyWriteBackAccounting(t *testing.T) {
	cfg := func(p Policy) Config {
		return Config{Words: 4, Assoc: 1, BlockWords: 4, Policy: p}
	}
	tests := []struct {
		name           string
		cfg            Config
		steps          []step
		wantWriteBacks int64
		wantThroughs   int64
		wantFills      int64
	}{
		{
			name: "store-in dirty eviction pays transfer",
			cfg:  cfg(StoreIn),
			steps: []step{
				{micro.OpWrite, 0, false, MissExtraNS},                  // fill + dirty
				{micro.OpRead, 4, false, BlockTransferNS + MissExtraNS}, // dirty eviction
				{micro.OpRead, 0, false, MissExtraNS},                   // clean eviction
			},
			wantWriteBacks: 1,
			wantFills:      3,
		},
		{
			name: "store-in write hit dirties without stall",
			cfg:  cfg(StoreIn),
			steps: []step{
				{micro.OpRead, 0, false, MissExtraNS},
				{micro.OpWrite, 0, true, 0}, // dirties the resident block
				{micro.OpRead, 4, false, BlockTransferNS + MissExtraNS},
			},
			wantWriteBacks: 1,
			wantFills:      2,
		},
		{
			name: "write-stack allocation is dirty but transfer-free",
			cfg:  cfg(StoreIn),
			steps: []step{
				{micro.OpWriteStack, 0, false, 0},                       // allocate, no read-in
				{micro.OpRead, 4, false, BlockTransferNS + MissExtraNS}, // but eviction writes it back
			},
			wantWriteBacks: 1,
			wantFills:      1,
		},
		{
			name: "store-through never writes back",
			cfg:  cfg(StoreThrough),
			steps: []step{
				{micro.OpWrite, 0, false, MissExtraNS + WriteThroughNS}, // fill + buffered write
				{micro.OpWrite, 0, true, WriteThroughNS},                // write hit still pays
				{micro.OpRead, 4, false, MissExtraNS},                   // eviction free: nothing dirty
				{micro.OpRead, 0, false, MissExtraNS},
			},
			wantThroughs: 2,
			wantFills:    3,
		},
		{
			name: "store-through write-stack allocation",
			cfg:  cfg(StoreThrough),
			steps: []step{
				{micro.OpWriteStack, 0, false, WriteThroughNS}, // no read-in, but the write goes through
				{micro.OpRead, 4, false, MissExtraNS},          // eviction free
			},
			wantThroughs: 1,
			wantFills:    1,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			c := runScript(t, tc.cfg, tc.steps)
			if c.WriteBacks != tc.wantWriteBacks {
				t.Errorf("write-backs = %d, want %d", c.WriteBacks, tc.wantWriteBacks)
			}
			if c.WriteThroughs != tc.wantThroughs {
				t.Errorf("write-throughs = %d, want %d", c.WriteThroughs, tc.wantThroughs)
			}
			if c.Fills != tc.wantFills {
				t.Errorf("fills = %d, want %d", c.Fills, tc.wantFills)
			}
		})
	}
}

// TestAccessBlockMatchesAccess pins the hoisted fast path to the classic
// one: feeding the same stream through Access and through the
// (BlockShift, Kind)-precomputed AccessBlock must produce identical
// statistics.
func TestAccessBlockMatchesAccess(t *testing.T) {
	cfg := Config{Words: 64, Assoc: 2, BlockWords: 4, Policy: StoreIn}
	a, b := mk(t, cfg), mk(t, cfg)
	area := word.StackArea(1, word.AreaTrail) // multi-process id: Kind() reduction matters
	for i := uint32(0); i < 500; i++ {
		phys := (i * 7) & 0xff
		op := micro.OpRead
		if i%5 == 0 {
			op = micro.OpWrite
		}
		h1, s1 := a.Access(op, phys, area)
		h2, s2 := b.AccessBlock(op, phys>>b.BlockShift(), area.Kind())
		if h1 != h2 || s1 != s2 {
			t.Fatalf("access %d: Access=(%v,%d) AccessBlock=(%v,%d)", i, h1, s1, h2, s2)
		}
	}
	if a.Total != b.Total || a.Area != b.Area || a.StallNS != b.StallNS {
		t.Errorf("stats diverged: %+v/%d vs %+v/%d", a.Total, a.StallNS, b.Total, b.StallNS)
	}
}
