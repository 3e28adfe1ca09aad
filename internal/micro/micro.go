// Package micro models the PSI microengine at the accounting level: every
// firmware action is a sequence of 200 ns microinstruction cycles, each
// carrying a module attribution (for Table 2), up to three work-file field
// accesses (Table 6), an optional cache command (Tables 3-5) and a branch
// field operation (Table 7). The interpreter core emits Cycle records;
// Stats aggregates them and trace sinks can persist them for the offline
// MAP and PMMS tools.
package micro

import "repro/internal/word"

// CycleNS is the PSI microinstruction cycle time (200 ns, Schottky TTL).
const CycleNS = 200

// Module attributes a microinstruction to a firmware interpreter module,
// matching the rows of Table 2.
type Module uint8

// Firmware modules.
const (
	MControl Module = iota // call/return/frame management
	MUnify                 // general unification
	MTrail                 // trailing and backtrack undo
	MGetArg                // argument fetch for built-in predicates
	MCut                   // cut processing
	MBuilt                 // built-in predicate bodies
	NumModules
)

var moduleNames = [...]string{"control", "unify", "trail", "get_arg", "cut", "built"}

// String names the module as in the paper's Table 2 header.
func (m Module) String() string {
	if int(m) < len(moduleNames) {
		return moduleNames[m]
	}
	return "module?"
}

// WFMode is a work-file access mode for one microinstruction field,
// matching the rows of Table 6.
type WFMode uint8

// Work-file access modes. ModeNone means the field does not touch the WF
// in this cycle.
const (
	ModeNone  WFMode = iota
	ModeWF00         // direct, words 00-0F (dual port; only mode legal for source 2)
	ModeWF10         // direct, words 10-3F
	ModeConst        // direct, constant storage area
	ModePCDR         // base-relative via PDR or CDR
	ModeWFAR1        // indirect via WFAR1 (frame buffer)
	ModeWFAR2        // indirect via WFAR2 (trail buffer)
	ModeWFCBR        // base-relative via WFCBR (general purpose)
	NumWFModes
)

var wfModeNames = [...]string{"-", "WF00-0F", "WF10-3F", "Constant", "@PDR/CDR", "@WFAR1", "@WFAR2", "@WFCBR"}

// String names the mode as in Table 6.
func (m WFMode) String() string {
	if int(m) < len(wfModeNames) {
		return wfModeNames[m]
	}
	return "mode?"
}

// CacheOp is the cache command carried by a microinstruction, matching the
// columns of Table 3.
type CacheOp uint8

// Cache commands. OpNone means no memory access this cycle.
const (
	OpNone CacheOp = iota
	OpRead
	OpWrite
	OpWriteStack // write without block read-in on miss, for stack pushes
	NumCacheOps
)

var cacheOpNames = [...]string{"-", "read", "write", "write-stack"}

// String names the cache command.
func (o CacheOp) String() string {
	if int(o) < len(cacheOpNames) {
		return cacheOpNames[o]
	}
	return "op?"
}

// BranchOp is the branch-field operation of a microinstruction, matching
// the rows of Table 7. The PSI microword has three branch-field formats;
// each format has its own no-operation encoding.
type BranchOp uint8

// Branch operations, grouped by microword type as in Table 7.
const (
	// Type 1 (full branch field).
	BNop1    BranchOp = iota // (1) no operation
	BCond                    // (2) if (cond) then
	BCondNot                 // (3) if (not(cond)) then
	BIfTag                   // (4) if tag(src2) then
	BCaseTag                 // (5) case (tag(n, P/CDR)) — multi-way tag dispatch
	BCaseIRN                 // (6) case (irn) — packed-operand tag dispatch
	BCaseOp                  // (7) case (ir-opcode)
	BGoto                    // (8) goto
	BGosub                   // (9) gosub
	BReturn                  // (10) return
	BLoadJR                  // (11) load jr
	BGotoJR                  // (12) goto @jr
	// Type 2 (short goto field).
	BNop2  // (13) no operation
	BGoto2 // (14) goto
	// Type 3 (jr field).
	BNop3    // (15) no operation
	BGotoJR3 // (16) goto @jr
	NumBranchOps
)

var branchNames = [...]string{
	"no operation", "if (cond) then", "if (not(cond)) then", "if tag(src2) then",
	"case (tag(n,P/CDR))", "case (irn)", "case (ir-opcode)", "goto", "gosub",
	"return", "load-jr", "goto @jr", "no operation", "goto", "no operation", "goto @jr",
}

// String names the branch operation as in Table 7.
func (b BranchOp) String() string {
	if int(b) < len(branchNames) {
		return branchNames[b]
	}
	return "branch?"
}

// IsNop reports whether the branch field carries no operation.
func (b BranchOp) IsNop() bool { return b == BNop1 || b == BNop2 || b == BNop3 }

// Type returns the microword branch-field format (1, 2 or 3).
func (b BranchOp) Type() int {
	switch {
	case b <= BGotoJR:
		return 1
	case b <= BGoto2:
		return 2
	default:
		return 3
	}
}

// Cycle describes one executed microinstruction.
type Cycle struct {
	Module Module
	Src1   WFMode // ALU input-1 field
	Src2   WFMode // ALU input-2 field (hardware restricts to WF00-0F)
	Dest   WFMode // ALU output field
	Cache  CacheOp
	Addr   word.Addr // logical address for the cache command
	Branch BranchOp
	Data   bool // cycle performs data manipulation alongside the branch
}

// Packed register-only cycle signatures.
//
// A register-only cycle (no cache command, no address) is fully
// determined by its module, work-file field modes, branch operation and
// data flag, which together fit in 19 bits. The interpreter core hands
// such cycles to its accounting as a packed signature instead of a
// Cycle struct: Sig1/Sig2/SigD/SigBr compile to a single shift, so a
// call site that ORs them over literal arguments folds the whole
// signature to an immediate — which is what lets the machine account a
// register-only cycle with one table increment. The module id occupies
// bits 0..2 and is OR'd in by the machine, as is the cache command
// (bits 12..13) of a memory cycle. SigCycle inverts the packing for a
// per-cycle tap.

// Sig1 packs the ALU input-1 field mode (bits 3..5).
func Sig1(m WFMode) uint32 { return uint32(m) << 3 }

// Sig2 packs the ALU input-2 field mode (bits 6..8).
func Sig2(m WFMode) uint32 { return uint32(m) << 6 }

// SigD packs the ALU output field mode (bits 9..11).
func SigD(m WFMode) uint32 { return uint32(m) << 9 }

// SigBr packs the branch-field operation (bits 14..17). Bits 12..13
// hold the cache command, always OpNone for a register-only cycle.
func SigBr(b BranchOp) uint32 { return uint32(b) << 14 }

// SigData flags data manipulation alongside the branch (bit 18).
const SigData uint32 = 1 << 18

// SigCycle rebuilds the cycle a packed signature encodes; addr is the
// cycle's memory address (zero for a register-only cycle).
func SigCycle(sig uint32, addr word.Addr) Cycle {
	return Cycle{
		Module: Module(sig & 7),
		Src1:   WFMode(sig >> 3 & 7),
		Src2:   WFMode(sig >> 6 & 7),
		Dest:   WFMode(sig >> 9 & 7),
		Cache:  CacheOp(sig >> 12 & 3),
		Addr:   addr,
		Branch: BranchOp(sig >> 14 & 15),
		Data:   sig>>18&1 == 1,
	}
}

// Sink receives executed cycles; Stats and the trace collector implement
// it.
type Sink interface {
	Cycle(c Cycle)
}

// NoPredicate is the predicate id reported for cycles executed outside
// any user predicate: query pseudo-clauses, metacall stubs and the
// firmware's top-level glue.
const NoPredicate = -1

// PredTracker receives predicate-context switches: the interpreter core
// calls EnterPredicate whenever the microengine starts executing on
// behalf of a different predicate, and every subsequent cycle or access
// belongs to that predicate until the next switch. The id is an index
// into the program's procedure table, or NoPredicate.
type PredTracker interface {
	EnterPredicate(id int)
}

// AccessSink receives a run's memory accesses only: one call per cycle
// that carries a cache command, with the command and the logical
// address, and nothing for register-only cycles. Because two thirds of
// the cycles never reach it, an AccessSink — unlike a Sink — is not a
// per-cycle tap. A cache simulator fed this way sees the same access
// stream a COLLECT trace holds; the trace's cycle count is the run's
// Stats.Steps. An AccessSink that also implements PredTracker receives
// the predicate-context switches as well.
type AccessSink interface {
	Access(op CacheOp, a word.Addr)
}

// MissSink optionally receives cache-miss notifications alongside the
// cycle stream (one call per missing cache command, including every
// access of a cache-disabled run). A per-cycle trace sink that wants
// per-predicate miss attribution implements it together with
// PredTracker.
type MissSink interface {
	CacheMiss()
}

// ProfileSink receives the per-predicate profile by charges instead of
// the per-cycle stream: whenever the predicate context switches, and
// once more at every observation boundary, the machine charges the
// predicate it leaves (NoPredicate for query glue and stubs) with the
// cycles, memory accesses and cache misses executed since the previous
// charge. Because nothing is called per cycle, a ProfileSink — unlike a
// Sink — is not a per-cycle tap. The charges sum to the run's Steps and
// cache counters at every observation boundary.
type ProfileSink interface {
	Charge(pred int, cycles, accesses, misses int64)
}

// Stats aggregates cycle records into the dynamic counts behind
// Tables 2, 3, 4, 6 and 7.
type Stats struct {
	Steps       int64
	ModuleSteps [NumModules]int64
	Branch      [NumBranchOps]int64
	BranchData  int64 // branch-op cycles that also manipulate data
	Src1        [NumWFModes]int64
	Src2        [NumWFModes]int64
	Dest        [NumWFModes]int64
	CacheOps    [NumCacheOps]int64
	// AreaOps counts cache commands per area kind (heap..trail) and op.
	AreaOps [5][NumCacheOps]int64
}

// Cycle implements Sink.
func (s *Stats) Cycle(c Cycle) {
	s.Steps++
	if c.Module < NumModules {
		s.ModuleSteps[c.Module]++
	}
	s.Branch[c.Branch]++
	if !c.Branch.IsNop() && c.Data {
		s.BranchData++
	}
	s.Src1[c.Src1]++
	s.Src2[c.Src2]++
	s.Dest[c.Dest]++
	s.CacheOps[c.Cache]++
	if c.Cache != OpNone {
		s.AreaOps[c.Addr.Area().Kind()][c.Cache]++
	}
}

// Reset zeroes the statistics.
func (s *Stats) Reset() { *s = Stats{} }

// MemoryAccesses reports the total number of cache commands issued.
func (s *Stats) MemoryAccesses() int64 {
	return s.CacheOps[OpRead] + s.CacheOps[OpWrite] + s.CacheOps[OpWriteStack]
}

// ModuleRatio reports the fraction of steps attributed to module m.
func (s *Stats) ModuleRatio(m Module) float64 {
	if s.Steps == 0 {
		return 0
	}
	return float64(s.ModuleSteps[m]) / float64(s.Steps)
}

// CacheOpRatio reports the fraction of steps carrying cache command op.
func (s *Stats) CacheOpRatio(op CacheOp) float64 {
	if s.Steps == 0 {
		return 0
	}
	return float64(s.CacheOps[op]) / float64(s.Steps)
}

// AreaAccessRatio reports the share of all memory accesses going to the
// given area kind.
func (s *Stats) AreaAccessRatio(kind word.AreaID) float64 {
	total := s.MemoryAccesses()
	if total == 0 {
		return 0
	}
	var n int64
	for op := OpRead; op < NumCacheOps; op++ {
		n += s.AreaOps[kind.Kind()][op]
	}
	return float64(n) / float64(total)
}

// BranchRatio reports the fraction of steps whose branch field carries op.
func (s *Stats) BranchRatio(op BranchOp) float64 {
	if s.Steps == 0 {
		return 0
	}
	return float64(s.Branch[op]) / float64(s.Steps)
}
