package core

// Dynamic predicates: assertz/1 appends a clause to the program at run
// time (immediate-update view: calls already in progress keep their
// clause numbering; new calls see the new clause); retract/1 removes the
// first matching fact by marking its clause dead in place, so clause
// numbers stored in live choice points stay valid.

import (
	"fmt"

	"repro/internal/kl0"
	"repro/internal/micro"
	"repro/internal/term"
	"repro/internal/word"
)

// biAssertz implements assertz(Clause).
func (m *Machine) biAssertz(args []val) bool {
	// Snapshot the clause term (runtime bindings become part of the
	// stored clause; unbound cells become fresh clause variables).
	t := m.decodeVal(m.derefVal(micro.MBuilt, args[0]), true)
	m.ownProgram()
	if err := m.prog.AddClauses([]*term.Term{t}); err != nil {
		panic(&RunError{Msg: fmt.Sprintf("assertz/1: %v", err)})
	}
	m.load() // the new code joins the heap image
	// Charge the code-store writes.
	for i := 0; i < 6; i++ {
		m.alu(micro.MBuilt, micro.Sig1(micro.ModeWF10)|micro.SigD(micro.ModeWF10)|micro.SigBr(micro.BCond)|micro.SigData)
	}
	return true
}

// biRetract implements retract(Fact) for facts (clauses without bodies).
func (m *Machine) biRetract(args []val) bool {
	g := m.derefVal(micro.MBuilt, args[0])
	var sym uint32
	var arity int
	switch g.W.Tag() {
	case word.TagAtom:
		sym = g.W.Data()
	case word.TagNil:
		sym = 0
	case word.TagSkel:
		f := m.read(micro.MBuilt, g.W.Addr(), micro.SigBr(micro.BGoto2))
		sym = f.FuncSym()
		arity = f.FuncArity()
	default:
		panic(&RunError{Msg: "retract/1: argument must be callable"})
	}
	procIdx, ok := m.prog.LookupProcSym(sym, arity)
	if !ok {
		return false
	}
	// The fact's head arguments.
	head := make([]val, arity)
	for i := 0; i < arity; i++ {
		aw := m.read(micro.MGetArg, g.W.Addr().Add(1+i), micro.SigD(micro.ModeWF10)|micro.SigBr(micro.BNop2))
		head[i] = m.resolveSkelArg(micro.MGetArg, aw, g.Frame)
	}
	proc := m.prog.Procs[procIdx]
	for k := range proc.Clauses {
		ci := proc.Clauses[k]
		if ci.Dead {
			continue
		}
		if m.retractMatch(ci, head) {
			m.ownProgram()
			m.prog.RetractClause(procIdx, k)
			m.alu(micro.MBuilt, micro.Sig1(micro.ModeWF10)|micro.SigD(micro.ModeWF10)|micro.SigBr(micro.BGoto)|micro.SigData)
			return true
		}
	}
	return false
}

// retractMatch unifies a fact clause's head with the pattern, keeping the
// bindings on success and undoing them on failure.
func (m *Machine) retractMatch(ci kl0.ClauseInfo, head []val) bool {
	start := heapA(ci.Start)
	info := m.read(micro.MBuilt, start, micro.SigBr(micro.BGoto2))
	if info.InfoArity() != len(head) {
		return false
	}
	// Facts only: the word after the head must be the end marker.
	if m.mem.Read(start.Add(1+info.InfoArity())).Tag() != word.TagEnd {
		return false
	}
	ctx := m.ctx
	savedLTop, savedGTop := ctx.localTop, ctx.globalTop
	savedForce, savedBaseL, savedBaseG := m.forceTrail, m.baseLMark, m.baseGMark
	savedLM, savedGM := ctx.lMark, ctx.gMark
	m.flushTrailBuf()
	trailMark := ctx.trailTop
	m.forceTrail = true
	m.baseLMark, m.baseGMark = ctx.localTop, ctx.globalTop
	ctx.lMark, ctx.gMark = ctx.localTop, ctx.globalTop

	// Fresh frames for the clause instance.
	ginit := info.InfoGInit()
	gfNew := word.MakeAddr(ctx.global, ctx.globalTop)
	for i := 0; i < ci.NGlobals; i++ {
		w := word.Undef
		_ = w
		m.pushGlobal(micro.MBuilt, word.Undef, micro.Sig1(micro.ModeConst)|micro.SigBr(micro.BNop2)|micro.SigData)
	}
	_ = ginit
	lfNew := m.allocLocalFrame(ci.NLocals)

	ok := true
	for i := 0; i < len(head) && ok; i++ {
		hw := m.read(micro.MBuilt, start.Add(1+i), micro.SigD(micro.ModeWF10)|micro.SigBr(micro.BNop2))
		hv := m.resolveArg(micro.MBuilt, hw, lfNew, gfNew)
		ok = m.unify(hv, head[i])
	}
	if !ok {
		m.trailUnwind(trailMark)
		ctx.localTop, ctx.globalTop = savedLTop, savedGTop
		m.invalidateBufsAbove(ctx.localTop)
	} else {
		// Keep the bindings; release only the local frame.
		m.popLocalFrame(savedLTop)
	}
	m.forceTrail, m.baseLMark, m.baseGMark = savedForce, savedBaseL, savedBaseG
	ctx.lMark, ctx.gMark = savedLM, savedGM
	return ok
}
