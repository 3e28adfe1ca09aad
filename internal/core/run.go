package core

import (
	stdcontext "context"
	"errors"
	"fmt"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/kl0"
	"repro/internal/micro"
	"repro/internal/parse"
	"repro/internal/term"
	"repro/internal/word"
)

// Control-frame layouts. Both environments and choice points are 10-word
// frames on the control stack, as on the machine.
const ctrlFrameWords = 10

// Environment frame slots.
const (
	envContCode = iota // continuation code address (0 in the sentinel)
	envContEnv
	envContLF
	envContGF
	envCutBarrier
	envLFBase // this clause's local frame base offset
	envLFSize
	envR7 // reserved words: the firmware keeps extended control state
	envR8
	envR9
)

// Choice-point frame slots.
const (
	cpGoalCode = iota // address of the goal word being re-solved
	cpGoalLF
	cpGoalGF
	cpGoalEnv
	cpProc       // procedure index
	cpNextClause // next clause to try
	cpLocalTop
	cpGlobalTop
	cpTrailMark
	cpSavedB
)

// heapA builds a heap address from a code offset.
func heapA(off int) word.Addr { return word.MakeAddr(word.AreaHeap, uint32(off)) }

// Solutions enumerates the answers of one query. Only one Solutions may
// be active on a machine at a time.
type Solutions struct {
	m       *Machine
	q       *kl0.Query
	gf      word.Addr
	started bool
	done    bool
	err     error
}

// Err reports a run error (step limit, malformed execution).
func (s *Solutions) Err() error { return s.err }

// Solve parses src as a goal, compiles it and returns its solutions.
func (m *Machine) Solve(src string) (*Solutions, error) {
	a := term.GetArena()
	defer a.Release()
	g, err := parse.ReadGoal(a, src)
	if err != nil {
		return nil, err
	}
	q, err := m.prog.CompileGoal(a, g)
	if err != nil {
		return nil, err
	}
	return m.SolveQuery(q), nil
}

// SolveQuery returns the solutions of a query compiled earlier with
// Program.CompileQuery. Because nothing is compiled here, many machines
// sharing one read-only program image can each run the same precompiled
// query concurrently — the path the evaluation harness uses.
func (m *Machine) SolveQuery(q *kl0.Query) *Solutions {
	m.load()
	return &Solutions{m: m, q: q}
}

// Next produces the next answer as a variable binding map. ok is false
// when no (further) answer exists or an error occurred (check Err).
func (s *Solutions) Next() (map[string]*term.Term, bool) {
	if s.Run(nil) != engine.Solution {
		return nil, false
	}
	return s.Bindings(), true
}

// Run searches for the next answer and reports how the search stopped;
// after engine.Solution, the next Run forces backtracking into the next
// answer. A cancelable ctx is polled at the machine's event boundary
// every engine.CheckEvery microcycles, nested sub-executions included
// (see armPoll); a done context aborts the run like the step limit,
// classed engine.ErrDeadline or engine.ErrCanceled. A nil or
// non-cancelable ctx arms no poll.
func (s *Solutions) Run(ctx stdcontext.Context) engine.Status {
	if s.err != nil {
		return engine.Failed
	}
	if s.done {
		return engine.Exhausted
	}
	m := s.m
	// Telemetry bookends. The span measures host time (it never touches
	// simulated state); the flight event is keyed by the simulated step
	// count, so the recorded stream is deterministic for a given program
	// and fault plan.
	stepsBefore := m.stats.Steps
	var spanStart time.Time
	if m.spans != nil {
		spanStart = time.Now()
	}
	if m.flight != nil {
		m.flight.Record(stepsBefore, "step", "")
	}
	var found bool
	func() {
		// The containment boundary: no panic raised while the machine
		// executes escapes this frame. Expected aborts travel as
		// *RunError; detected (injected) hardware faults as *fault.Check;
		// anything else is an internal bug — all three are converted into
		// errors so the process survives. The check for r != nil matters:
		// recover returns nil for runtime.Goexit, which must proceed.
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			switch v := r.(type) {
			case *RunError:
				s.err = v
			case *fault.Check:
				s.err = &engine.FaultError{
					Site:  v.Site.String(),
					Step:  m.stats.Steps,
					Msg:   v.Error(),
					Stack: string(debug.Stack()),
				}
			default:
				s.err = &engine.FaultError{
					Site:  "panic",
					Step:  m.stats.Steps,
					Msg:   fmt.Sprint(v),
					Stack: string(debug.Stack()),
				}
			}
			s.done = true
		}()
		if ctx != nil && ctx.Done() != nil {
			if err := ctx.Err(); err != nil {
				panic(ctxAbort(err, m.stats.Steps))
			}
			m.armPoll(ctx)
			defer m.armPoll(nil)
		}
		// Arm injection only inside the boundary: decode, compilation and
		// program-load paths outside it never trip an injector.
		if m.inj != nil {
			m.inj.Arm()
			defer m.inj.Disarm()
		}
		if !s.started {
			s.started = true
			s.gf = m.startQuery(s.q)
		} else {
			m.failed = true // force backtracking into the next answer
		}
		found = m.runLoop()
	}()
	// Drain the deferred accounting: from here on the statistics are
	// observable (reports, metrics, the next run) and must equal
	// per-cycle micro.Stats accounting bit for bit. Runs after the
	// containment recovery above, so aborted and faulted runs flush too.
	// The profile's tail is charged at the same boundary, so its total
	// equals Stats().Steps whenever statistics are observable.
	m.fastFlush()
	m.profileFlush()
	var st engine.Status
	switch {
	case s.err != nil:
		st = engine.Failed
	case found:
		st = engine.Solution
	default:
		s.done = true
		st = engine.Exhausted
	}
	if m.flight != nil {
		s.recordOutcome(st)
	}
	if m.spans != nil {
		m.spans.Complete(m.spanName, "step", m.spanTID, spanStart, map[string]string{
			"steps":  strconv.FormatInt(m.stats.Steps-stepsBefore, 10),
			"status": st.String(),
		})
	}
	return st
}

// recordOutcome appends the run's outcome to the flight recorder: the
// status on a clean run, the fault site or the error text otherwise.
func (s *Solutions) recordOutcome(st engine.Status) {
	m := s.m
	switch {
	case s.err != nil:
		var fe *engine.FaultError
		if errors.As(s.err, &fe) {
			m.flight.Record(m.stats.Steps, "fault", fe.Site)
		} else {
			m.flight.Record(m.stats.Steps, "error", s.err.Error())
		}
	case st == engine.Solution:
		m.flight.Record(m.stats.Steps, "solution", "")
	default:
		m.flight.Record(m.stats.Steps, "exhausted", "")
	}
}

// Bindings decodes the current answer (valid after a Solution).
func (s *Solutions) Bindings() map[string]*term.Term {
	ans := make(map[string]*term.Term, len(s.q.Vars))
	for i, name := range s.q.Vars {
		ans[name] = s.m.decode(s.gf.Add(i))
	}
	return ans
}

// startQuery sets up the query pseudo-clause: a sentinel environment plus
// an all-global frame for the query variables.
func (m *Machine) startQuery(q *kl0.Query) word.Addr {
	ctx := m.ctx
	// Allocate the query's global frame.
	gf := word.MakeAddr(ctx.global, ctx.globalTop)
	for i := 0; i < q.NGlobals; i++ {
		m.pushGlobal(micro.MControl, word.Undef, micro.Sig1(micro.ModeConst)|micro.SigBr(micro.BCondNot)|micro.SigData)
	}
	// Sentinel environment: contCode 0 marks query success.
	sent := [ctrlFrameWords]word.Word{
		envContCode: 0,
		envContEnv:  0,
		envContLF:   0,
		envContGF:   0,
		envLFBase:   word.New(word.TagRef, ctx.localTop),
	}
	e := m.pushCtrlFrame(&ctx.envBuf, &sent)
	ctx.e = e
	ctx.lf = 0
	ctx.gf = gf
	ctx.code = heapA(q.Start + 1) // skip the info word (arity 0)
	return gf
}

// failed marks that the current computation path failed and the machine
// must backtrack before executing further code.
// (Declared on Machine to keep the main loop iterative: deep
// backtracking chains must not recurse through Go stack frames.)

// runLoop executes microcode until a solution is found (true) or the
// search space is exhausted (false). Nested sub-executions (findall/3,
// \+/1, interrupt handlers) run through it too, so the event boundary
// (step limit, context poll) stops them like the top-level search.
func (m *Machine) runLoop() bool {
	for {
		if m.halted {
			return false
		}
		if m.failed {
			if !m.backtrack() {
				return false
			}
			continue
		}
		ctx := m.ctx
		if m.trackPred {
			// Attribute the upcoming cycles to the predicate owning the
			// code pointer (clause bodies, continuations after returns,
			// redone goals); -1 covers query pseudo-clauses and stubs.
			m.enterPred(m.prog.ProcAt(int(ctx.code.Offset())))
		}
		// Instruction fetch, decode, then opcode dispatch.
		w := m.read(micro.MControl, ctx.code, micro.SigBr(micro.BNop2))
		m.alu(micro.MControl, micro.Sig1(micro.ModeWF10)|micro.SigD(micro.ModeWF00)|micro.SigBr(micro.BCaseOp)|micro.SigData)
		switch w.Tag() {
		case word.TagGoal:
			m.inferences++
			arity := w.FuncArity()
			gAddr := ctx.code
			// Loading the goal arguments is the caller's half of head
			// unification.
			args := m.fetchGoalArgs(micro.MUnify, gAddr, arity, ctx.lf, ctx.gf)
			m.dispatchCall(int(w.FuncSym()), gAddr, gAddr.Add(1+arity), args, 0, false)

		case word.TagBuiltin:
			m.execBuiltin(kl0.Builtin(w.FuncSym()), w.FuncArity())

		case word.TagCut:
			m.cut()
			ctx.code = ctx.code.Add(1)

		case word.TagEnd:
			if m.ret() {
				return true
			}

		default:
			panic(&RunError{Msg: fmt.Sprintf("illegal instruction %v at %v", w, ctx.code)})
		}
	}
}

// fetchGoalArgs reads and resolves the argument words of a goal into the
// argument registers.
func (m *Machine) fetchGoalArgs(mod micro.Module, gAddr word.Addr, arity int, lf, gf word.Addr) []val {
	args := m.argRegs[:arity:arity]
	for i := 0; i < arity; i++ {
		aw := m.read(mod, gAddr.Add(1+i), micro.SigD(micro.ModeWF10)|micro.SigBr(micro.BNop2))
		args[i] = m.resolveArg(mod, aw, lf, gf)
	}
	return args
}

// dispatchCall performs a user-predicate call: choice-point creation when
// alternatives remain, last-call optimization when determinate, then the
// head unification of the selected clause. On head failure it sets the
// failed flag (the main loop backtracks).
//
// cpExists reports that the choice point for this call is already on the
// control stack (the redo path).
func (m *Machine) dispatchCall(procIdx int, gAddr, after word.Addr, args []val, startClause int, cpExists bool) {
	ctx := m.ctx
	proc := m.prog.Procs[procIdx]
	// PSI-II clause selection: with a bound first argument the index
	// picks the candidate clauses. The candidate list is recomputed
	// identically on the redo path (the trail restored the argument).
	candidates := m.selectClauses(procIdx, proc, args)
	remaining := len(candidates) - startClause
	if remaining <= 0 {
		m.failed = true
		return
	}
	if m.trackPred {
		// From here on the firmware works on the callee's behalf: choice
		// point, frame allocation and head unification charge to it.
		m.enterPred(procIdx)
	}
	barrier := ctx.b
	if cpExists {
		// Redo path: the newest choice point is this call's own; the
		// clause's cut must reach past it.
		barrier = m.redoBarrier
	} else if remaining > 1 {
		m.createCP(gAddr, procIdx, startClause+1)
	}

	// Continuation for the callee.
	retCode, retE, retLF, retGF := after, ctx.e, ctx.lf, ctx.gf

	// Last-call optimization: determinate call in final position releases
	// the caller's environment and local frame now. A choice point for
	// this very call (created above or still live on the redo path)
	// suppresses it through the b/e comparison. The firmware knows the
	// goal is final from the instruction stream (we peek the next code
	// word without charge: it was prefetched with the goal).
	determinate := remaining == 1 && (ctx.b == 0 || ctx.b.Offset() < ctx.e.Offset())
	if determinate && !m.feat.NoLCO && ctx.e != 0 && m.mem.Read(after).Tag() == word.TagEnd {
		cont := m.readCtrl(micro.MControl, ctx.e, envContCode)
		if cont != 0 {
			retCode = cont.Addr()
			retE = m.readCtrl(micro.MControl, ctx.e, envContEnv).Addr()
			retLF = m.readCtrl(micro.MControl, ctx.e, envContLF).Addr()
			retGF = m.readCtrl(micro.MControl, ctx.e, envContGF).Addr()
			lfBase := m.readCtrl(micro.MControl, ctx.e, envLFBase)
			// Unsafe values: an argument that is still an unbound cell of
			// the dying local frame is moved to the global stack (the
			// interpretive counterpart of put_unsafe_value).
			for i := range args {
				if args[i].isUnbound() && args[i].Addr != 0 &&
					args[i].Addr.Area() == ctx.local &&
					args[i].Addr.Offset() >= lfBase.Data() {
					args[i] = m.globalizeUnsafe(args[i].Addr)
				}
			}
			m.popLocalFrame(lfBase.Data())
			ctx.controlTop = ctx.e.Offset()
			m.dropCtrlAbove(ctx.controlTop)
			ctx.e = retE
			ctx.lf = retLF
			ctx.gf = retGF
			// Environment release bookkeeping.
			m.alu(micro.MControl, micro.Sig1(micro.ModeWF00)|micro.SigD(micro.ModeWF00)|micro.SigBr(micro.BGoto)|micro.SigData)
		}
	}

	m.tryClause(proc.Clauses[candidates[startClause]], args, retCode, retE, retLF, retGF, barrier)
}

// selectClauses returns the clause numbers to try for a call, through
// the PSI-II first-argument index when enabled.
func (m *Machine) selectClauses(procIdx int, proc *kl0.Proc, args []val) []int {
	if !m.feat.Indexing || len(proc.Clauses) < 2 || len(args) == 0 {
		return m.aliveClauses(proc)
	}
	ix := m.prog.Index(procIdx)
	// The dispatch itself: a tag dispatch plus a table probe.
	m.alu(micro.MControl, micro.Sig1(micro.ModeWF00)|micro.SigBr(micro.BCaseTag)|micro.SigData)
	m.alu(micro.MControl, micro.Sig1(micro.ModeWF10)|micro.SigD(micro.ModeWF00)|micro.SigBr(micro.BGotoJR)|micro.SigData)
	a0 := args[0]
	switch a0.W.Tag() {
	case word.TagAtom, word.TagInt, word.TagNil:
		return m.dropDead(proc, ix.SelectConst(a0.W))
	case word.TagSkel:
		f := m.read(micro.MControl, a0.W.Addr(), micro.SigBr(micro.BGoto2))
		return m.dropDead(proc, ix.SelectStruct(f.Data()))
	default:
		return m.aliveClauses(proc)
	}
}

// dropDead filters retracted clauses out of an index bucket. Retraction
// marks clauses dead in place without invalidating the index (live
// choice points keep their clause numbers), so buckets can list dead
// clauses; the O(1) NDead check keeps the common static case free.
func (m *Machine) dropDead(proc *kl0.Proc, candidates []int) []int {
	if proc.NDead() == 0 {
		return candidates
	}
	out := make([]int, 0, len(candidates))
	for _, i := range candidates {
		if !proc.Clauses[i].Dead {
			out = append(out, i)
		}
	}
	return out
}

// aliveClauses lists the non-retracted clause numbers: the shared
// identity list when nothing is retracted, else the procedure's own
// alive list. Neither allocates.
func (m *Machine) aliveClauses(proc *kl0.Proc) []int {
	if proc.NDead() == 0 {
		return allClauses(len(proc.Clauses))
	}
	return proc.Alive()
}

// Identity candidate lists are prefixes of one process-wide slice
// {0, 1, 2, ...}, grown by doubling under seqMu and published through
// seqAll, so a lookup is one atomic load and never allocates.
var (
	seqMu  sync.Mutex
	seqAll atomic.Pointer[[]int]
)

// allClauses returns the identity list {0..n-1}. The result is capped
// (seq[:n:n]) so no caller can append into the shared array.
func allClauses(n int) []int {
	if p := seqAll.Load(); p != nil && n <= len(*p) {
		return (*p)[:n:n]
	}
	seqMu.Lock()
	defer seqMu.Unlock()
	var seq []int
	if p := seqAll.Load(); p != nil {
		seq = *p
	}
	if n > len(seq) {
		grown := make([]int, max(n, 2*len(seq), 64))
		for i := range grown {
			grown[i] = i
		}
		seq = grown
		seqAll.Store(&seq)
	}
	return seq[:n:n]
}

// globalizeUnsafe moves an unbound local cell to a fresh global cell just
// before its frame is released by the last-call optimization.
func (m *Machine) globalizeUnsafe(a word.Addr) val {
	// The cell may already have been redirected by an earlier argument
	// aliasing the same variable.
	v := m.derefCell(micro.MControl, a)
	if !v.isUnbound() || v.Addr != a {
		return v
	}
	g := m.pushGlobal(micro.MControl, word.Undef, micro.Sig1(micro.ModeConst)|micro.SigBr(micro.BCondNot)|micro.SigData)
	m.writeCell(micro.MControl, a, word.Ref(g))
	return val{W: word.Undef, Addr: g}
}

// tryClause allocates the clause instance's frames and unifies its head
// with the argument registers.
func (m *Machine) tryClause(ci kl0.ClauseInfo, args []val, retCode, retE, retLF, retGF, barrier word.Addr) {
	ctx := m.ctx
	start := heapA(ci.Start)
	info := m.read(micro.MControl, start, micro.SigD(micro.ModeWF10)|micro.SigBr(micro.BGosub)|micro.SigData)
	// Frame-size decode (loading JR with the arity as loop counter) and
	// the stack-overflow checks.
	m.alu(micro.MControl, micro.Sig1(micro.ModeWF10)|micro.SigD(micro.ModeWF00)|micro.SigBr(micro.BLoadJR)|micro.SigData)
	m.alu(micro.MControl, micro.Sig1(micro.ModeWF10)|micro.Sig2(micro.ModeWF00)|micro.SigBr(micro.BCondNot)|micro.SigData)
	arity := info.InfoArity()

	// Allocate the global frame: only the cells a shared skeleton may
	// touch are initialized eagerly; the rest materialize at their first
	// occurrence. (The simulator still zeroes the reserved cells so that
	// state stays well-defined; the hardware leaves them stale.)
	ginit := info.InfoGInit()
	gfNew := word.MakeAddr(ctx.global, ctx.globalTop)
	for i := 0; i < ginit; i++ {
		m.pushGlobal(micro.MControl, word.Undef, micro.Sig1(micro.ModeConst)|micro.SigBr(micro.BCondNot)|micro.SigData)
	}
	if rest := ci.NGlobals - ginit; rest > 0 {
		for i := 0; i < rest; i++ {
			m.mem.Write(gfNew.Add(ginit+i), word.Undef)
		}
		ctx.globalTop += uint32(rest)
		// Pointer bump only (with the overflow check).
		m.alu(micro.MControl, micro.Sig1(micro.ModeWF00)|micro.SigD(micro.ModeWF00)|micro.SigBr(micro.BCond)|micro.SigData)
	}
	// Allocate the local frame.
	lfBase := ctx.localTop
	lfNew := m.allocLocalFrame(ci.NLocals)

	// Head unification.
	for i := 0; i < arity; i++ {
		hw := m.read(micro.MUnify, start.Add(1+i), micro.SigD(micro.ModeWF10)|micro.SigBr(micro.BNop2))
		hv := m.resolveArg(micro.MUnify, hw, lfNew, gfNew)
		if !m.unify(hv, args[i]) {
			m.failed = true
			return
		}
	}

	bodyStart := start.Add(1 + arity)
	if m.mem.Read(bodyStart).Tag() == word.TagEnd {
		// Fact: return to the continuation. The local frame always dies:
		// nothing can reference it (bindings only ever point from younger
		// to older cells) and any choice point for this call saved a
		// local top at or below its base.
		m.alu(micro.MControl, micro.Sig1(micro.ModeWF00)|micro.SigBr(micro.BReturn)|micro.SigData)
		m.popLocalFrame(lfBase)
		ctx.code = retCode
		ctx.e = retE
		ctx.lf = retLF
		ctx.gf = retGF
		return
	}

	// Rule: push a 10-word environment frame (into the WF environment
	// buffer; it reaches the control stack only if a younger environment
	// supersedes it while it is still live).
	frame := [ctrlFrameWords]word.Word{
		envContCode:   word.New(word.TagRef, uint32(retCode)),
		envContEnv:    word.New(word.TagRef, uint32(retE)),
		envContLF:     word.New(word.TagRef, uint32(retLF)),
		envContGF:     word.New(word.TagRef, uint32(retGF)),
		envCutBarrier: word.New(word.TagRef, uint32(barrier)),
		envLFBase:     word.New(word.TagRef, lfBase),
		envLFSize:     word.Int32(int32(ci.NLocals)),
	}
	e := m.pushCtrlFrame(&ctx.envBuf, &frame)
	ctx.e = e
	ctx.lf = lfNew
	ctx.gf = gfNew
	ctx.code = bodyStart
	// Transfer of control into the body.
	m.alu(micro.MControl, micro.Sig1(micro.ModeWF00)|micro.SigD(micro.ModeWF00)|micro.SigBr(micro.BGoto2)|micro.SigData)
}

// createCP pushes a 10-word choice-point frame into the WF choice-point
// buffer. The trail buffer is flushed so the new choice point's trail
// mark is a plain stack height.
func (m *Machine) createCP(gAddr word.Addr, procIdx, nextClause int) {
	ctx := m.ctx
	m.flushTrailBuf()
	// Creating a choice point saves the current environment to the
	// control stack: the frame must be stable for the retries.
	m.spillCtrl(&ctx.envBuf)
	frame := [ctrlFrameWords]word.Word{
		cpGoalCode:   word.New(word.TagRef, uint32(gAddr)),
		cpGoalLF:     word.New(word.TagRef, uint32(ctx.lf)),
		cpGoalGF:     word.New(word.TagRef, uint32(ctx.gf)),
		cpGoalEnv:    word.New(word.TagRef, uint32(ctx.e)),
		cpProc:       word.Int32(int32(procIdx)),
		cpNextClause: word.Int32(int32(nextClause)),
		cpLocalTop:   word.New(word.TagRef, ctx.localTop),
		cpGlobalTop:  word.New(word.TagRef, ctx.globalTop),
		cpTrailMark:  word.New(word.TagRef, m.trailDepth()),
		cpSavedB:     word.New(word.TagRef, uint32(ctx.b)),
	}
	cp := m.pushCtrlFrame(&ctx.cpBuf, &frame)
	ctx.b = cp
	ctx.lMark = ctx.localTop
	ctx.gMark = ctx.globalTop
}

// backtrack restores the state saved in the newest choice point and
// redoes its goal with the next clause. It returns false when no choice
// point remains (the query fails).
func (m *Machine) backtrack() bool {
	ctx := m.ctx
	m.failed = false
	m.alu(micro.MControl, micro.Sig1(micro.ModeWF00)|micro.SigBr(micro.BCondNot))
	if ctx.b == 0 {
		return false
	}
	cp := ctx.b
	var goalCode, goalLF, goalGF, goalEnv, savedB word.Addr
	var procIdx, next int
	var savedLTop, savedGTop, savedTrail uint32
	if buf := m.ctrlBufFor(cp); buf != nil {
		// The newest choice point is register-resident: the redo state is
		// already at hand, costing only a few register cycles.
		for i := 0; i < 4; i++ {
			m.alu(micro.MControl, micro.Sig1(micro.ModeWF10)|micro.SigD(micro.ModeWF00)|micro.SigBr(micro.BCond)|micro.SigData)
		}
		goalCode = buf.words[cpGoalCode].Addr()
		goalLF = buf.words[cpGoalLF].Addr()
		goalGF = buf.words[cpGoalGF].Addr()
		goalEnv = buf.words[cpGoalEnv].Addr()
		procIdx = int(buf.words[cpProc].Int())
		next = int(buf.words[cpNextClause].Int())
		savedLTop = buf.words[cpLocalTop].Data()
		savedGTop = buf.words[cpGlobalTop].Data()
		savedTrail = buf.words[cpTrailMark].Data()
		savedB = buf.words[cpSavedB].Addr()
	} else {
		goalCode = m.readCtrl(micro.MControl, cp, cpGoalCode).Addr()
		goalLF = m.readCtrl(micro.MControl, cp, cpGoalLF).Addr()
		goalGF = m.readCtrl(micro.MControl, cp, cpGoalGF).Addr()
		goalEnv = m.readCtrl(micro.MControl, cp, cpGoalEnv).Addr()
		procIdx = int(m.readCtrl(micro.MControl, cp, cpProc).Int())
		next = int(m.readCtrl(micro.MControl, cp, cpNextClause).Int())
		savedLTop = m.readCtrl(micro.MControl, cp, cpLocalTop).Data()
		savedGTop = m.readCtrl(micro.MControl, cp, cpGlobalTop).Data()
		savedTrail = m.readCtrl(micro.MTrail, cp, cpTrailMark).Data()
		savedB = m.readCtrl(micro.MControl, cp, cpSavedB).Addr()
	}

	// Shallow backtracking — the "inner clause OR" the paper says the
	// separate control stack makes efficient: when the failed attempt
	// bound nothing and allocated nothing, there is nothing to restore.
	shallow := m.trailDepth() == savedTrail &&
		ctx.localTop == savedLTop && ctx.globalTop == savedGTop
	m.alu(micro.MControl, micro.Sig1(micro.ModeWF00)|micro.Sig2(micro.ModeWF00)|micro.SigBr(micro.BCond)|micro.SigData)
	if !shallow {
		m.trailUnwind(savedTrail)
		// Restore the stack-top registers.
		for i := 0; i < 3; i++ {
			m.alu(micro.MControl, micro.Sig1(micro.ModeWF10)|micro.SigD(micro.ModeWF00)|micro.SigBr(micro.BCond)|micro.SigData)
		}
		ctx.localTop = savedLTop
		m.invalidateBufsAbove(savedLTop)
		ctx.globalTop = savedGTop
	}

	proc := m.prog.Procs[procIdx]
	last := next >= len(proc.Clauses)-1
	if last {
		// Pop the choice point (a never-spilled frame simply vanishes
		// from the work file: shallow backtracking costs no memory).
		ctx.b = savedB
		ctx.controlTop = cp.Offset()
		m.dropCtrlAbove(ctx.controlTop)
		m.reloadMarks()
	} else {
		m.writeCtrl(micro.MControl, cp, cpNextClause, word.Int32(int32(next+1)))
		ctx.controlTop = cp.Offset() + ctrlFrameWords
		m.dropCtrlAbove(ctx.controlTop)
		ctx.lMark = savedLTop
		ctx.gMark = savedGTop
	}

	// Restore the caller context and redo the goal.
	ctx.e = goalEnv
	ctx.lf = goalLF
	ctx.gf = goalGF
	ctx.code = goalCode
	m.redoBarrier = savedB
	m.redo(procIdx, goalCode, next, !last)
	return true
}

// reloadMarks refreshes the trail watermarks from the (new) newest choice
// point.
func (m *Machine) reloadMarks() {
	ctx := m.ctx
	if ctx.b == 0 {
		// Inside a findall sub-execution the base watermarks still
		// apply; otherwise nothing needs trailing.
		ctx.lMark = m.baseLMark
		ctx.gMark = m.baseGMark
		return
	}
	ctx.lMark = m.readCtrl(micro.MControl, ctx.b, cpLocalTop).Data()
	ctx.gMark = m.readCtrl(micro.MControl, ctx.b, cpGlobalTop).Data()
}

// redo re-dispatches the goal recorded in a choice point with clause
// index next.
func (m *Machine) redo(procIdx int, gAddr word.Addr, next int, cpKept bool) {
	ctx := m.ctx
	w := m.read(micro.MControl, gAddr, micro.SigBr(micro.BCaseOp)|micro.SigData)
	switch w.Tag() {
	case word.TagGoal:
		// Retries of the same goal are not new logical inferences.
		arity := w.FuncArity()
		args := m.fetchGoalArgs(micro.MControl, gAddr, arity, ctx.lf, ctx.gf)
		m.dispatchCall(procIdx, gAddr, gAddr.Add(1+arity), args, next, cpKept)
	case word.TagBuiltin:
		// Only call/1 creates choice points among built-ins.
		m.redoMetacall(gAddr, next, cpKept)
	default:
		panic(&RunError{Msg: fmt.Sprintf("choice point goal is not a call: %v", w)})
	}
}

// cut discards the choice points created since the current clause was
// entered.
func (m *Machine) cut() {
	ctx := m.ctx
	barrier := m.readCtrl(micro.MCut, ctx.e, envCutBarrier).Addr()
	// Walk and discard the newer choice points. For each frame the
	// firmware unlinks it, restores the protection marks it held, and
	// tidies the trail segment it guarded so stale reset entries do not
	// accumulate — the expensive part of cut on the PSI.
	for cp := ctx.b; cp != 0 && cp.Offset() > barrier.Offset(); {
		next := m.readCtrl(micro.MCut, cp, cpSavedB).Addr()
		m.alu(micro.MCut, micro.Sig1(micro.ModeWF00)|micro.Sig2(micro.ModeWF00)|micro.SigBr(micro.BCond)|micro.SigData)
		m.alu(micro.MCut, micro.Sig1(micro.ModeWF10)|micro.SigD(micro.ModeWF00)|micro.SigBr(micro.BGoto2)|micro.SigData)
		for i := 0; i < 6; i++ {
			m.alu(micro.MCut, micro.Sig1(micro.ModeWF10)|micro.Sig2(micro.ModeWF00)|micro.SigD(micro.ModeWF10)|micro.SigBr(micro.BCondNot)|micro.SigData)
		}
		cp = next
	}
	if ctx.b != barrier {
		ctx.b = barrier
		m.reloadMarks()
		top := ctx.e.Offset() + ctrlFrameWords
		if barrier != 0 && barrier.Offset()+ctrlFrameWords > top {
			top = barrier.Offset() + ctrlFrameWords
		}
		ctx.controlTop = top
		m.dropCtrlAbove(top)
	}
	m.alu(micro.MCut, micro.Sig1(micro.ModeWF00)|micro.SigD(micro.ModeWF00)|micro.SigBr(micro.BNop1)|micro.SigData)
}

// ret finishes a clause body: continue at the continuation recorded in
// the current environment, releasing it when determinate. Returns true
// when the sentinel environment is reached (query success).
func (m *Machine) ret() bool {
	ctx := m.ctx
	cont := m.readCtrl(micro.MControl, ctx.e, envContCode)
	if cont == 0 {
		// Sentinel: query solved. Leave the machine state intact so a
		// forced failure can search for further answers.
		return true
	}
	contEnv := m.readCtrl(micro.MControl, ctx.e, envContEnv).Addr()
	contLF := m.readCtrl(micro.MControl, ctx.e, envContLF).Addr()
	contGF := m.readCtrl(micro.MControl, ctx.e, envContGF).Addr()
	if ctx.b == 0 || ctx.b.Offset() < ctx.e.Offset() {
		// Determinate return: pop the environment and its local frame. A
		// never-spilled environment dies in the work file.
		lfBase := m.readCtrl(micro.MControl, ctx.e, envLFBase).Data()
		m.popLocalFrame(lfBase)
		ctx.controlTop = ctx.e.Offset()
		m.dropCtrlAbove(ctx.controlTop)
	}
	m.alu(micro.MControl, micro.Sig1(micro.ModeWF10)|micro.Sig2(micro.ModeWF00)|micro.SigBr(micro.BCond)|micro.SigData)
	m.alu(micro.MControl, micro.Sig1(micro.ModeWF00)|micro.SigD(micro.ModeWF00)|micro.SigBr(micro.BReturn)|micro.SigData)
	ctx.code = cont.Addr()
	ctx.e = contEnv
	ctx.lf = contLF
	ctx.gf = contGF
	return false
}
