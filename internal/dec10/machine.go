package dec10

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime/debug"

	"repro/internal/engine"
	"repro/internal/kl0"
	"repro/internal/parse"
	"repro/internal/term"
)

// envF is an environment frame.
type envF struct {
	prev    *envF
	cont    int // continuation code index
	barrier *cpF
	ys      []Cell
}

// cpF is a choice-point frame.
type cpF struct {
	prev      *cpF
	env       *envF
	cont      int
	args      []Cell
	alt       int
	trailMark int
	heapMark  int
	hb        int
	b0        *cpF // barrier register at call time (for cut)
}

// Config configures a baseline machine.
type Config struct {
	Out      io.Writer
	MaxUnits int64 // abort bound (0 = none)
}

// Machine is the compiled-code baseline engine.
type Machine struct {
	prog  *Program
	heap  []Cell
	trail []int32
	x     []Cell
	e     *envF
	b     *cpF
	b0    *cpF // choice point at the time of the last call (cut barrier)
	hb    int
	// hbFloor keeps bindings below it trailable even with no live choice
	// point — findall/3 sub-executions must be fully undoable.
	hbFloor int
	// metaStub is the lazily-built code index of the metacall stub used
	// by sub-executions; conjStub sequences ','(A, B) metacalls.
	metaStub int
	conjStub int
	pc       int
	cont     int
	mode     bool // write mode for the unify stream
	s        int  // unify-stream argument pointer
	out      io.Writer

	units    int64
	calls    int64
	maxUnits int64
	// stop is the event-boundary sentinel cost compares units against:
	// the smaller of the unit limit and the unit count before the next
	// context poll (MaxInt64 with neither armed), so one compare per
	// charge serves both. Kept by setStop; crossing it enters boundary.
	stop int64
	// poll is the cancelable context of the running Solutions.Run (nil
	// when none is armed), pollAt the unit count of its next poll.
	poll   context.Context
	pollAt int64

	failed bool
	halted bool
}

// New builds a machine.
func New(prog *Program, cfg Config) *Machine {
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	m := &Machine{
		prog:     prog,
		x:        make([]Cell, prog.MaxReg+kl0.MaxArity+8),
		out:      cfg.Out,
		maxUnits: cfg.MaxUnits,
	}
	m.setStop()
	return m
}

// Units reports the consumed cost units.
func (m *Machine) Units() int64 { return m.units }

// SetMaxUnits adjusts the abort bound (0 = none).
func (m *Machine) SetMaxUnits(n int64) {
	m.maxUnits = n
	m.setStop()
}

// TimeNS reports the modelled DEC-2060 execution time.
func (m *Machine) TimeNS() int64 { return m.units * NSPerUnit }

// Calls reports the number of call/execute instructions (logical
// inferences).
func (m *Machine) Calls() int64 { return m.calls }

// cost charges units.
func (m *Machine) cost(u int64) {
	m.units += u
	if m.units > m.stop {
		m.boundary()
	}
}

// boundary services the event boundary cost crossed: the unit-limit
// abort, then the context poll, the same order as the PSI machine's.
// Out of line so cost stays inlinable.
//
//go:noinline
func (m *Machine) boundary() {
	if m.maxUnits > 0 && m.units > m.maxUnits {
		panic(&RunError{Msg: fmt.Sprintf("unit limit %d exceeded", m.maxUnits), Class: engine.ErrStepLimit})
	}
	if m.poll != nil && m.units >= m.pollAt {
		m.pollAt = m.units + engine.CheckEvery
		if err := m.poll.Err(); err != nil {
			panic(ctxAbort(err, m.units))
		}
	}
	m.setStop()
}

// setStop recomputes the event-boundary sentinel from the unit limit
// and the next context poll.
func (m *Machine) setStop() {
	m.stop = math.MaxInt64
	if m.maxUnits > 0 {
		m.stop = m.maxUnits
	}
	if m.poll != nil && m.pollAt-1 < m.stop {
		m.stop = m.pollAt - 1
	}
}

// armPoll arms (or with nil disarms) the context poll: from the current
// unit count on, boundary checks ctx every engine.CheckEvery units,
// inside nested sub-executions too.
func (m *Machine) armPoll(ctx context.Context) {
	m.poll = ctx
	m.pollAt = m.units + engine.CheckEvery
	m.setStop()
}

// ctxAbort is the abort of a run whose context is done at unit count
// units, classed engine.ErrDeadline or engine.ErrCanceled.
func ctxAbort(err error, units int64) *RunError {
	return &RunError{Msg: fmt.Sprintf("%v at unit %d", err, units), Class: engine.CtxClass(err)}
}

// RunError reports abnormal termination. Class, when set, is the
// engine-level error class (engine.ErrStepLimit, ...); it defaults to
// engine.ErrMalformed so errors.Is always resolves a class.
type RunError struct {
	Msg   string
	Class error
}

func (e *RunError) Error() string { return "dec10: " + e.Msg }

// Unwrap exposes the engine error class for errors.Is.
func (e *RunError) Unwrap() error {
	if e.Class != nil {
		return e.Class
	}
	return engine.ErrMalformed
}

// ---- heap primitives ---------------------------------------------------

// newVar pushes a fresh unbound cell.
func (m *Machine) newVar() int {
	i := len(m.heap)
	m.heap = append(m.heap, C(CRef, uint32(i)))
	m.cost(costHeapCell)
	return i
}

// deref follows reference chains.
func (m *Machine) deref(c Cell) Cell {
	hops := 0
	for c.Tag() == CRef {
		n := m.heap[c.Ptr()]
		if n == c {
			break
		}
		c = n
		hops++
	}
	if hops > 1 {
		m.cost(int64(hops-1) * costDeref)
	}
	return c
}

// bind stores v into the unbound ref cell r, trailing conditionally.
func (m *Machine) bind(r Cell, v Cell) {
	a := r.Ptr()
	m.heap[a] = v
	if a < m.hb {
		m.trail = append(m.trail, int32(a))
		m.cost(costTrailEntry)
	}
}

// unify performs general unification of two cells.
func (m *Machine) unify(a, b Cell) bool {
	type pair struct{ a, b Cell }
	pdl := []pair{{a, b}}
	for len(pdl) > 0 {
		p := pdl[len(pdl)-1]
		pdl = pdl[:len(pdl)-1]
		x := m.deref(p.a)
		y := m.deref(p.b)
		m.cost(costUnifyNode)
		if x == y {
			continue
		}
		switch {
		case x.Tag() == CRef && y.Tag() == CRef:
			// Bind the younger to the older.
			if x.Ptr() > y.Ptr() {
				m.bind(x, y)
			} else {
				m.bind(y, x)
			}
		case x.Tag() == CRef:
			m.bind(x, y)
		case y.Tag() == CRef:
			m.bind(y, x)
		case x.Tag() != y.Tag():
			return false
		case x.Tag() == CCon || x.Tag() == CInt:
			if x.Data() != y.Data() {
				return false
			}
		case x.Tag() == CNil:
			// equal by tag
		case x.Tag() == CLis:
			pdl = append(pdl, pair{m.heap[x.Ptr()], m.heap[y.Ptr()]},
				pair{m.heap[x.Ptr()+1], m.heap[y.Ptr()+1]})
		case x.Tag() == CStr:
			fx, fy := m.heap[x.Ptr()], m.heap[y.Ptr()]
			if fx != fy {
				return false
			}
			for i := 1; i <= fx.FuncArity(); i++ {
				pdl = append(pdl, pair{m.heap[x.Ptr()+i], m.heap[y.Ptr()+i]})
			}
		default:
			return false
		}
	}
	return true
}

// ---- query interface -----------------------------------------------------

// Solutions enumerates answers.
type Solutions struct {
	m       *Machine
	vars    []string
	cells   []Cell
	haltPC  int
	entry   int
	started bool
	done    bool
	err     error
}

// Err reports a run error.
func (s *Solutions) Err() error { return s.err }

// Solve parses and runs a query.
func (m *Machine) Solve(src string) (*Solutions, error) {
	g, err := parse.Term(src)
	if err != nil {
		return nil, err
	}
	return m.SolveTerm(g)
}

// SolveTerm compiles and runs a query goal.
func (m *Machine) SolveTerm(goal *term.Term) (*Solutions, error) {
	idx, vars, err := m.prog.CompileQuery(goal)
	if err != nil {
		return nil, err
	}
	haltPC := len(m.prog.Code)
	m.prog.Code = append(m.prog.Code, instr{op: opHaltSuccess})
	return &Solutions{m: m, vars: vars, haltPC: haltPC, entry: m.prog.Procs[idx].Entry}, nil
}

// SolveQuery runs a query precompiled with Program.CompileQueryHandle;
// nothing is parsed or compiled on this path.
func (m *Machine) SolveQuery(q *Query) *Solutions {
	return &Solutions{m: m, vars: q.Vars, haltPC: q.HaltPC, entry: q.Entry}
}

// Next returns the next answer.
func (s *Solutions) Next() (map[string]*term.Term, bool) {
	if s.Run(nil) != engine.Solution {
		return nil, false
	}
	return s.Bindings(), true
}

// Run searches for the next answer and reports how the search stopped;
// after engine.Solution, the next Run forces backtracking into the next
// answer. A cancelable ctx is polled at the cost boundary every
// engine.CheckEvery units, nested sub-executions included; a done
// context aborts the run like the unit limit, classed
// engine.ErrDeadline or engine.ErrCanceled.
func (s *Solutions) Run(ctx context.Context) engine.Status {
	if s.err != nil {
		return engine.Failed
	}
	if s.done {
		return engine.Exhausted
	}
	m := s.m
	var found bool
	func() {
		// Containment boundary: the DEC-10 model has no injection sites,
		// but any internal panic is still converted into a classified
		// engine.ErrFault instead of crashing the process. recover
		// returns nil for runtime.Goexit, which must proceed.
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if re, ok := r.(*RunError); ok {
				s.err = re
			} else {
				s.err = &engine.FaultError{
					Site:  "panic",
					Step:  m.units,
					Msg:   fmt.Sprint(r),
					Stack: string(debug.Stack()),
				}
			}
			s.done = true
		}()
		if ctx != nil && ctx.Done() != nil {
			if err := ctx.Err(); err != nil {
				panic(ctxAbort(err, m.units))
			}
			m.armPoll(ctx)
			defer m.armPoll(nil)
		}
		if !s.started {
			s.started = true
			// Fresh unbound argument cells for the query variables.
			s.cells = make([]Cell, len(s.vars))
			for i := range s.vars {
				a := m.newVar()
				s.cells[i] = C(CRef, uint32(a))
				m.x[i] = s.cells[i]
			}
			m.cont = s.haltPC
			m.pc = s.entry
			m.failed = false
		} else {
			m.failed = true // force backtracking into the next answer
		}
		found = m.run()
	}()
	switch {
	case s.err != nil:
		return engine.Failed
	case found:
		return engine.Solution
	default:
		s.done = true
		return engine.Exhausted
	}
}

// Bindings decodes the current answer (valid after a Solution).
func (s *Solutions) Bindings() map[string]*term.Term {
	ans := make(map[string]*term.Term, len(s.vars))
	for i, v := range s.vars {
		ans[v] = s.m.decodeCell(s.cells[i])
	}
	return ans
}

// backtrack restores the newest choice point; returns false when none.
func (m *Machine) backtrack() bool {
	m.failed = false
	if m.b == nil {
		return false
	}
	b := m.b
	// Unwind the trail.
	for len(m.trail) > b.trailMark {
		a := m.trail[len(m.trail)-1]
		m.trail = m.trail[:len(m.trail)-1]
		m.heap[a] = C(CRef, uint32(a))
		m.cost(costTrailEntry)
	}
	m.heap = m.heap[:b.heapMark]
	// Argument registers restore from the choice point without extra
	// cost: the frame is register-resident on the 2060's microcode too.
	copy(m.x, b.args)
	m.e = b.env
	m.cont = b.cont
	m.hb = maxInt(b.hb, m.hbFloor)
	m.b0 = b.b0
	m.pc = b.alt
	return true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// run executes until success (pc reaches the query's opHaltSuccess) or
// exhaustion. Nested sub-executions (findall/3, \+/1, metacall stubs)
// run through it too, so the cost boundary (unit limit, context poll)
// stops them like the top-level search.
func (m *Machine) run() bool {
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
		ins := &m.prog.Code[m.pc]
		m.cost(opCost[ins.op])
		switch ins.op {
		case opNop:
			m.pc++

		case opGetVariableX, opGetVariableY:
			v := m.x[ins.b]
			if ins.op == opGetVariableX {
				m.x[ins.a] = v
			} else {
				m.e.ys[ins.a] = v
			}
			m.pc++

		case opGetValueX:
			if !m.unify(m.x[ins.a], m.x[ins.b]) {
				m.failed = true
				continue
			}
			m.pc++
		case opGetValueY:
			if !m.unify(m.e.ys[ins.a], m.x[ins.b]) {
				m.failed = true
				continue
			}
			m.pc++

		case opGetConstant, opGetNil:
			want := ins.c
			if ins.op == opGetNil {
				want = NilCell
			}
			d := m.deref(m.x[ins.b])
			if d.Tag() == CRef {
				m.bind(d, want)
			} else if d != want {
				m.failed = true
				continue
			}
			m.pc++

		case opGetList:
			d := m.deref(m.x[ins.b])
			switch d.Tag() {
			case CLis:
				m.mode = false
				m.s = d.Ptr()
			case CRef:
				h := len(m.heap)
				m.heap = append(m.heap, 0, 0) // the pair, filled by unify stream
				m.cost(2 * costHeapCell)
				m.bind(d, C(CLis, uint32(h)))
				m.mode = true
				m.s = h
			default:
				m.failed = true
				continue
			}
			m.pc++

		case opGetStructure:
			d := m.deref(m.x[ins.b])
			switch d.Tag() {
			case CStr:
				f := m.heap[d.Ptr()]
				if f.Data() != ins.f {
					m.failed = true
					continue
				}
				m.mode = false
				m.s = d.Ptr() + 1
			case CRef:
				h := len(m.heap)
				m.heap = append(m.heap, C(CFun, ins.f))
				arity := int(ins.f & 0xff)
				for i := 0; i < arity; i++ {
					m.heap = append(m.heap, 0)
				}
				m.cost(int64(arity+1) * costHeapCell)
				m.bind(d, C(CStr, uint32(h)))
				m.mode = true
				m.s = h + 1
			default:
				m.failed = true
				continue
			}
			m.pc++

		case opUnifyVariableX, opUnifyVariableY:
			var v Cell
			if m.mode {
				a := len(m.heap)
				m.heap = append(m.heap, C(CRef, uint32(a)))
				m.heap[m.s] = C(CRef, uint32(a))
				m.cost(costHeapCell)
				v = C(CRef, uint32(a))
			} else {
				v = m.heap[m.s]
			}
			m.s++
			if ins.op == opUnifyVariableX {
				m.x[ins.a] = v
			} else {
				m.e.ys[ins.a] = v
			}
			m.pc++

		case opUnifyValueX, opUnifyValueY:
			var v Cell
			if ins.op == opUnifyValueX {
				v = m.x[ins.a]
			} else {
				v = m.e.ys[ins.a]
			}
			if m.mode {
				m.heap[m.s] = v
				m.cost(costHeapCell)
				m.s++
			} else {
				if !m.unify(m.heap[m.s], v) {
					m.failed = true
					continue
				}
				m.s++
			}
			m.pc++

		case opUnifyConstant, opUnifyNil:
			want := ins.c
			if ins.op == opUnifyNil {
				want = NilCell
			}
			if m.mode {
				m.heap[m.s] = want
				m.cost(costHeapCell)
				m.s++
			} else {
				d := m.deref(m.heap[m.s])
				if d.Tag() == CRef {
					m.bind(d, want)
				} else if d != want {
					m.failed = true
					continue
				}
				m.s++
			}
			m.pc++

		case opUnifyVoid:
			n := int(ins.a)
			for i := 0; i < n; i++ {
				if m.mode {
					a := len(m.heap)
					m.heap = append(m.heap, C(CRef, uint32(a)))
					m.heap[m.s] = C(CRef, uint32(a))
					m.cost(costHeapCell)
				}
				m.s++
			}
			m.pc++

		case opPutVariableX, opPutVariableY:
			a := m.newVar()
			v := C(CRef, uint32(a))
			if ins.op == opPutVariableX {
				m.x[ins.a] = v
			} else {
				m.e.ys[ins.a] = v
			}
			m.x[ins.b] = v
			m.pc++

		case opPutValueX:
			m.x[ins.b] = m.x[ins.a]
			m.pc++
		case opPutValueY:
			m.x[ins.b] = m.e.ys[ins.a]
			m.pc++

		case opPutConstant:
			m.x[ins.b] = ins.c
			m.pc++
		case opPutNil:
			m.x[ins.b] = NilCell
			m.pc++

		case opPutList:
			h := len(m.heap)
			m.heap = append(m.heap, 0, 0)
			m.cost(2 * costHeapCell)
			m.x[ins.b] = C(CLis, uint32(h))
			m.mode = true
			m.s = h
			m.pc++

		case opPutStructure:
			h := len(m.heap)
			m.heap = append(m.heap, C(CFun, ins.f))
			arity := int(ins.f & 0xff)
			for i := 0; i < arity; i++ {
				m.heap = append(m.heap, 0)
			}
			m.cost(int64(arity+1) * costHeapCell)
			m.x[ins.b] = C(CStr, uint32(h))
			m.mode = true
			m.s = h + 1
			m.pc++

		case opAllocate:
			n := int(ins.a)
			e := &envF{prev: m.e, cont: m.cont, barrier: m.b0, ys: make([]Cell, n)}
			// Permanent variables are heap-allocated so bindings are
			// uniform and the trail only ever holds heap addresses.
			for i := 0; i < n; i++ {
				a := m.newVar()
				e.ys[i] = C(CRef, uint32(a))
			}
			m.cost(int64(n) * costEnvSlot)
			m.e = e
			m.pc++

		case opDeallocate:
			m.cont = m.e.cont
			m.e = m.e.prev
			m.pc++

		case opCall:
			m.calls++
			p := m.prog.Procs[ins.a]
			if p.Entry < 0 {
				panic(&RunError{Msg: "call to undefined predicate " + p.Indicator()})
			}
			m.cont = m.pc + 1
			m.b0 = m.b
			m.pc = p.Entry

		case opExecute:
			m.calls++
			p := m.prog.Procs[ins.a]
			if p.Entry < 0 {
				panic(&RunError{Msg: "call to undefined predicate " + p.Indicator()})
			}
			m.b0 = m.b
			m.pc = p.Entry

		case opProceed:
			m.pc = m.cont

		case opCut:
			for m.b != nil && m.b != m.e.barrier {
				m.b = m.b.prev
				m.cost(1)
			}
			if m.b != nil {
				m.hb = maxInt(m.b.heapMark, m.hbFloor)
			} else {
				m.hb = m.hbFloor
			}
			m.pc++

		case opFail:
			m.failed = true

		case opTry:
			nargs := int(ins.b) // procedure arity recorded by the compiler
			args := make([]Cell, nargs)
			copy(args, m.x[:nargs])
			m.cost(int64(nargs) * costCPArg)
			m.b = &cpF{
				prev: m.b, env: m.e, cont: m.cont, args: args,
				alt: m.pc + 1, trailMark: len(m.trail), heapMark: len(m.heap), hb: m.hb,
				b0: m.b0,
			}
			m.hb = len(m.heap)
			m.pc = int(ins.a)

		case opRetry:
			m.b.alt = m.pc + 1
			m.hb = m.b.heapMark
			m.pc = int(ins.a)

		case opTrust:
			m.b = m.b.prev
			if m.b != nil {
				m.hb = maxInt(m.b.heapMark, m.hbFloor)
			} else {
				m.hb = m.hbFloor
			}
			m.pc = int(ins.a)

		case opSwitchOnTerm:
			d := m.deref(m.x[0])
			switch d.Tag() {
			case CRef:
				m.pc = int(ins.lv)
			case CCon, CInt, CNil:
				m.pc = int(ins.lc)
			case CLis:
				m.pc = int(ins.ll)
			case CStr:
				m.pc = int(ins.ls)
			default:
				m.failed = true
			}

		case opSwitchOnConstant:
			d := m.deref(m.x[0])
			if t, ok := ins.tbl[d]; ok {
				m.pc = int(t)
			} else {
				m.pc = int(ins.a)
			}

		case opSwitchOnStructure:
			d := m.deref(m.x[0])
			f := m.heap[d.Ptr()]
			if t, ok := ins.ftb[f.Data()]; ok {
				m.pc = int(t)
			} else {
				m.pc = int(ins.a)
			}

		case opBuiltin:
			m.execBuiltin(ins.bi, int(ins.a))

		case opHaltSuccess:
			return true

		default:
			panic(&RunError{Msg: fmt.Sprintf("bad opcode %v", ins.op)})
		}
	}
}

// decodeCell converts a heap cell into a source term. A node budget
// bounds the walk: without an occurs check, terms can be cyclic.
func (m *Machine) decodeCell(c Cell) *term.Term {
	budget := 100000
	return m.decodeBudget(c, &budget)
}

func (m *Machine) decodeBudget(c Cell, budget *int) *term.Term {
	if *budget <= 0 {
		return term.NewAtom("<cyclic>")
	}
	*budget--
	d := m.deref(c)
	switch d.Tag() {
	case CRef:
		return term.NewVar(fmt.Sprintf("_H%d", d.Ptr()))
	case CInt:
		return term.NewInt(int64(d.Int()))
	case CCon:
		return term.NewAtom(m.prog.Syms.Name(d.Data()))
	case CNil:
		return term.EmptyList()
	case CLis:
		return term.Cons(m.decodeBudget(m.heap[d.Ptr()], budget), m.decodeBudget(m.heap[d.Ptr()+1], budget))
	case CStr:
		f := m.heap[d.Ptr()]
		args := make([]*term.Term, f.FuncArity())
		for i := range args {
			args[i] = m.decodeBudget(m.heap[d.Ptr()+1+i], budget)
		}
		return term.NewCompound(m.prog.Syms.Name(f.FuncSym()), args...)
	default:
		return term.NewAtom("<bad cell>")
	}
}
