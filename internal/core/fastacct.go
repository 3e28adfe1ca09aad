package core

import (
	"repro/internal/micro"
)

// Deferred cycle accounting.
//
// micro.Stats.Cycle makes ten counter updates per 200 ns simulated
// cycle. The machine instead packs each cycle's accounting signature
// (module, work-file field modes, cache command, branch op, data flag,
// memory-area kind — everything Stats.Cycle looks at) into a small
// integer key and bumps one counter in a direct-mapped signature table.
// Distinct signatures are few (one per emission site and dynamic
// module/area combination), so the same handful of slots stay hot. At
// every observation boundary — Solutions.Run returning,
// Machine.Stats() — the table is flushed: each slot's count expands
// into the same per-field additions Stats.Cycle would have performed
// one cycle at a time. This is the machine's only accounting path; a
// per-cycle tap (a trace) receives the cycles rebuilt from
// their keys at the event boundary, and the differential suite checks
// the expansion against a micro.Stats fed through such a tap.
//
// The key layout extends micro.Sig* (module 0..2, Src1/Src2/Dest
// 3..11, cache 12..13, branch 14..17, data 18) with the memory-area
// kind in bits 19..21, offset by one so a zero slot key means "empty".
//
// Stats.Steps is NOT deferred: the event-boundary sentinel (step limit,
// heartbeat, context poll) reads it per cycle, and deferring it would
// move the abort point. The expansion therefore adds everything except
// Steps.

// fastTabBits sizes the signature table. Signature keys are 23 bits;
// 4096 slots with a multiplicative hash makes collisions (which cost
// one early flush, not correctness) rare.
const (
	fastTabBits = 12
	fastTabSize = 1 << fastTabBits
)

// fastSlot is one signature-table entry: a packed cycle signature
// (offset by one so zero means empty) and its deferred cycle count.
type fastSlot struct {
	key uint32
	n   int64
}

// fastExpand replays n cycles of the packed signature into the
// statistics — the same additions n calls of micro.Stats.Cycle would
// have made, minus Steps (counted live).
func (m *Machine) fastExpand(key uint32, n int64) {
	key--
	s := &m.stats
	mod := micro.Module(key & 7)
	if mod < micro.NumModules {
		s.ModuleSteps[mod] += n
	}
	branch := micro.BranchOp(key >> 14 & 15)
	s.Branch[branch] += n
	if key>>18&1 == 1 && !branch.IsNop() {
		s.BranchData += n
	}
	s.Src1[key>>3&7] += n
	s.Src2[key>>6&7] += n
	s.Dest[key>>9&7] += n
	op := micro.CacheOp(key >> 12 & 3)
	s.CacheOps[op] += n
	if op != micro.OpNone {
		s.AreaOps[key>>19&7][op] += n
	}
}

// fastFlush expands every deferred count into the statistics and
// empties the table. Idempotent; a no-op with nothing deferred. Called
// at every boundary where the statistics become observable.
func (m *Machine) fastFlush() {
	for i := range m.fastTab {
		sl := &m.fastTab[i]
		if sl.key != 0 {
			m.fastExpand(sl.key, sl.n)
			sl.key = 0
			sl.n = 0
		}
	}
}
