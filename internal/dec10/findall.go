package dec10

import (
	"fmt"
	"strconv"

	"repro/internal/kl0"
	"repro/internal/term"
)

// This file implements the all-solutions, negation-as-metacall and
// atom-conversion built-ins for the baseline engine.

// subSolve runs a goal cell as an isolated sub-execution, invoking each
// per solution (return false to stop); all bindings and stack growth are
// undone afterwards.
func (m *Machine) subSolve(goal Cell, each func() bool) {
	savedPC, savedCont := m.pc, m.cont
	savedE, savedB, savedB0 := m.e, m.b, m.b0
	savedHB, savedFloor := m.hb, m.hbFloor
	savedFailed, savedHalted := m.failed, m.halted
	trailMark := len(m.trail)
	heapMark := len(m.heap)
	savedX := make([]Cell, len(m.x))
	copy(savedX, m.x)

	// A reusable stub: metacall X0, then signal success.
	if m.metaStub == 0 {
		m.metaStub = len(m.prog.Code)
		m.prog.Code = append(m.prog.Code,
			instr{op: opBuiltin, bi: kl0.BCall, a: 1},
			instr{op: opHaltSuccess})
	}

	m.x[0] = goal
	m.b = nil
	m.b0 = nil
	m.hb = heapMark
	m.hbFloor = heapMark
	m.failed = false
	m.cont = m.metaStub + 1
	m.pc = m.metaStub

	for m.run() {
		if !each() {
			break
		}
		m.failed = true
	}

	// Undo everything.
	for len(m.trail) > trailMark {
		a := m.trail[len(m.trail)-1]
		m.trail = m.trail[:len(m.trail)-1]
		m.heap[a] = C(CRef, uint32(a))
	}
	m.heap = m.heap[:heapMark]
	copy(m.x, savedX)
	m.pc, m.cont = savedPC, savedCont
	m.e, m.b, m.b0 = savedE, savedB, savedB0
	m.hb, m.hbFloor = savedHB, savedFloor
	m.failed, m.halted = savedFailed, savedHalted
}

// biFindall implements findall(Template, Goal, List).
func (m *Machine) biFindall() bool {
	tmpl, goal := m.x[0], m.x[1]
	out := m.x[2]
	var snaps []*term.Term
	m.subSolve(goal, func() bool {
		if len(snaps) > 1_000_000 {
			panic(&RunError{Msg: "findall/3: more than 1e6 solutions"})
		}
		snaps = append(snaps, m.decodeCell(tmpl))
		return true
	})
	cells := make([]Cell, len(snaps))
	for i, t := range snaps {
		cells[i] = m.encodeTerm(t, map[string]Cell{})
	}
	return m.unify(out, m.mkList(cells))
}

// metaNegation implements \+/1 in metacall position.
func (m *Machine) metaNegation(goal Cell) bool {
	found := false
	m.subSolve(goal, func() bool {
		found = true
		return false
	})
	return !found
}

// encodeTerm rebuilds a snapshot as heap cells; variables become fresh
// cells, shared by name within one snapshot.
func (m *Machine) encodeTerm(t *term.Term, vars map[string]Cell) Cell {
	switch t.Kind {
	case term.Int:
		return Int32(int32(t.N))
	case term.Atom:
		if t.Functor == "[]" {
			return NilCell
		}
		return Con(m.prog.Syms.Intern(t.Functor))
	case term.Var:
		if c, ok := vars[t.Name]; ok && t.Name != "_" {
			return c
		}
		a := m.newVar()
		c := C(CRef, uint32(a))
		if t.Name != "_" {
			vars[t.Name] = c
		}
		return c
	default:
		if t.IsCons() {
			h := m.encodeTerm(t.Args[0], vars)
			tl := m.encodeTerm(t.Args[1], vars)
			p := len(m.heap)
			m.heap = append(m.heap, h, tl)
			m.cost(2 * costHeapCell)
			return C(CLis, uint32(p))
		}
		args := make([]Cell, len(t.Args))
		for i, a := range t.Args {
			args[i] = m.encodeTerm(a, vars)
		}
		p := len(m.heap)
		m.heap = append(m.heap, Fun(m.prog.Syms.Intern(t.Functor), len(t.Args)))
		m.heap = append(m.heap, args...)
		m.cost(int64(len(args) + 1))
		return C(CStr, uint32(p))
	}
}

// biName implements name/2.
func (m *Machine) biName() bool {
	v := m.deref(m.x[0])
	if v.Tag() != CRef {
		var s string
		switch v.Tag() {
		case CCon:
			s = m.prog.Syms.Name(v.Data())
		case CNil:
			s = "[]"
		case CInt:
			s = strconv.FormatInt(int64(v.Int()), 10)
		default:
			panic(&RunError{Msg: "name/2: first argument must be atomic"})
		}
		cells := make([]Cell, len(s))
		for i := 0; i < len(s); i++ {
			cells[i] = Int32(int32(s[i]))
		}
		return m.unify(m.x[1], m.mkList(cells))
	}
	codes, ok := m.cellList(m.x[1])
	if !ok {
		panic(&RunError{Msg: "name/2: second argument must be a proper list of codes"})
	}
	buf := make([]byte, 0, len(codes))
	for _, c := range codes {
		cv := m.deref(c)
		if cv.Tag() != CInt || cv.Int() < 0 || cv.Int() > 255 {
			panic(&RunError{Msg: fmt.Sprintf("name/2: bad character code %v", cv)})
		}
		buf = append(buf, byte(cv.Int()))
	}
	s := string(buf)
	if n, err := strconv.ParseInt(s, 10, 32); err == nil && s != "" && s != "-" {
		return m.unify(v, Int32(int32(n)))
	}
	if s == "[]" {
		return m.unify(v, NilCell)
	}
	return m.unify(v, Con(m.prog.Syms.Intern(s)))
}
