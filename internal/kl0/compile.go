package kl0

import (
	"math"

	"repro/internal/term"
	"repro/internal/word"
)

// varKind classifies one clause variable.
type varKind uint8

const (
	kindVoid varKind = iota
	kindLocal
	kindGlobal
)

// varInfo is one named clause variable: its occurrences, then its
// classification, then whether its fresh occurrence has been emitted.
type varInfo struct {
	num        int32 // the variable's number in its clause
	count      int
	inCompound bool
	kind       varKind
	index      int
	lazy       bool
	emitted    bool
}

// classifier scans a clause and decides each variable's kind. The
// compile scratch keeps one and reuses its tables for every clause.
type classifier struct {
	forceGlobal bool
	vars        []varInfo // in order of first occurrence
	slot        []int32   // 1 + index into vars by variable number, 0 if unseen
}

// reset empties the classifier for the next clause.
func (c *classifier) reset(forceGlobal bool) {
	for _, v := range c.vars {
		c.slot[v.num] = 0
	}
	c.vars = c.vars[:0]
	c.forceGlobal = forceGlobal
}

// lookup returns variable number k, or nil if the clause has none (and
// for the anonymous variable).
func (c *classifier) lookup(k int32) *varInfo {
	if uint32(k) < uint32(len(c.slot)) && c.slot[k] != 0 {
		return &c.vars[c.slot[k]-1]
	}
	return nil
}

func (c *classifier) touch(k int32) *varInfo {
	if k == term.Anon {
		return nil
	}
	vi := c.lookup(k)
	if vi == nil {
		if int(k) >= len(c.slot) {
			c.slot = append(c.slot, make([]int32, int(k)+1-len(c.slot))...)
		}
		c.vars = append(c.vars, varInfo{num: k})
		c.slot[k] = int32(len(c.vars))
		vi = &c.vars[len(c.vars)-1]
	}
	vi.count++
	return vi
}

// scanTerm records occurrences below the top level (inside a compound).
func (c *classifier) scanTerm(a *term.Arena, t term.Ref) {
	switch a.Kind(t) {
	case term.Var:
		if vi := c.touch(a.VarNum(t)); vi != nil {
			vi.inCompound = true
		}
	case term.Compound:
		for _, x := range a.Args(t) {
			c.scanTerm(a, x)
		}
	}
}

// scanArgs records top-level argument occurrences.
func (c *classifier) scanArgs(a *term.Arena, args []term.Ref) {
	for _, x := range args {
		if a.Kind(x) == term.Var {
			c.touch(a.VarNum(x))
			continue
		}
		c.scanTerm(a, x)
	}
}

// scanGoals records all body occurrences.
func (c *classifier) scanGoals(a *term.Arena, goals []goal) {
	for _, g := range goals {
		c.scanArgs(a, g.args)
	}
}

// varSet is the classification result; the per-variable kinds and
// indices are recorded in the classifier's table. Global slots are
// ordered with the eagerly-initialized variables (those occurring
// inside compound terms, whose cells a shared skeleton may touch at any
// time) first; the remaining globals and all locals materialize lazily
// at their first top-level occurrence, which the emitter marks with the
// fresh bit.
type varSet struct {
	nLocals  int
	nGlobals int
	ginit    int
}

// finish classifies the scanned variables. The caller checks the frame
// sizes against MaxArity.
func (c *classifier) finish() varSet {
	var vs varSet
	// Pass 1: eager globals (inside compound terms) take the low indices.
	for i := range c.vars {
		v := &c.vars[i]
		if c.forceGlobal || v.count == 1 {
			continue
		}
		if v.inCompound {
			v.kind, v.index = kindGlobal, vs.nGlobals
			vs.nGlobals++
		}
	}
	vs.ginit = vs.nGlobals
	// Pass 2: the rest.
	for i := range c.vars {
		v := &c.vars[i]
		if v.kind == kindGlobal {
			continue
		}
		switch {
		case c.forceGlobal:
			// Query variables are all global and eagerly initialized (the
			// query frame outlives the run for answer extraction).
			v.kind, v.index = kindGlobal, vs.nGlobals
			vs.nGlobals++
			vs.ginit = vs.nGlobals
		case v.count == 1:
			v.kind = kindVoid
		default:
			v.kind, v.index, v.lazy = kindLocal, vs.nLocals, true
			vs.nLocals++
		}
	}
	return vs
}

// globalNames lists the global variables of clause cl by slot.
func (c *classifier) globalNames(vs varSet, a *term.Arena, cl term.Clause) []string {
	names := make([]string, vs.nGlobals)
	for _, v := range c.vars {
		if v.kind == kindGlobal {
			names[v.index] = a.VarName(cl, v.num)
		}
	}
	return names
}

// emitter writes instruction code words for one clause.
type emitter struct {
	p      *Program
	a      *term.Arena
	cl     *classifier
	clause term.Clause
	// offs holds skeleton offsets: those of the clause's top-level
	// compound arguments in emission order, read back through next,
	// with each emitSkel's pending children stacked above them.
	offs []int
	next int
}

// emitClause writes all skeletons then the clause proper, returning the
// offset of the info word.
func (em *emitter) emitClause(headArgs []term.Ref, goals []goal, vars varSet) (int, error) {
	// Emit skeletons for every compound argument first so the clause body
	// is a contiguous run of words (instruction fetch locality).
	for _, a := range headArgs {
		if err := em.prepareArg(a); err != nil {
			return 0, err
		}
	}
	for _, g := range goals {
		for _, a := range g.args {
			if err := em.prepareArg(a); err != nil {
				return 0, err
			}
		}
	}
	start := len(em.p.Code)
	em.p.Code = append(em.p.Code, word.Info(vars.nLocals, vars.nGlobals, vars.ginit, len(headArgs)))
	for _, a := range headArgs {
		w, err := em.argWord(a)
		if err != nil {
			return 0, err
		}
		em.p.Code = append(em.p.Code, w)
	}
	for _, g := range goals {
		switch {
		case g.cut:
			em.p.Code = append(em.p.Code, word.New(word.TagCut, 0))
		case g.isBI:
			em.p.Code = append(em.p.Code, word.New(word.TagBuiltin, uint32(g.builtin)<<8|uint32(len(g.args))))
		default:
			em.p.Code = append(em.p.Code, word.New(word.TagGoal, uint32(g.proc)<<8|uint32(len(g.args))))
		}
		for _, a := range g.args {
			w, err := em.argWord(a)
			if err != nil {
				return 0, err
			}
			em.p.Code = append(em.p.Code, w)
		}
	}
	em.p.Code = append(em.p.Code, word.New(word.TagEnd, 0))
	return start, nil
}

// prepareArg emits the skeleton(s) for a compound argument and queues
// its offset for the clause proper.
func (em *emitter) prepareArg(t term.Ref) error {
	if em.a.Kind(t) != term.Compound {
		return nil
	}
	off, err := em.emitSkel(t)
	if err != nil {
		return err
	}
	em.offs = append(em.offs, off)
	return nil
}

// emitSkel writes the skeleton for compound term t (children first) and
// returns its offset. Each occurrence of a compound gets its own
// skeleton: within one clause, neither the parser nor the lifting of
// control constructs shares a subterm.
func (em *emitter) emitSkel(t term.Ref) (int, error) {
	args := em.a.Args(t)
	if len(args) > MaxArity {
		return 0, em.p.errf(em.clause, "functor arity %d exceeds %d", len(args), MaxArity)
	}
	base := len(em.offs)
	for _, x := range args {
		if em.a.Kind(x) == term.Compound {
			off, err := em.emitSkel(x)
			if err != nil {
				return 0, err
			}
			em.offs = append(em.offs, off)
		}
	}
	off := len(em.p.Code)
	sym := em.p.sym(em.a.Sym(t))
	em.p.Code = append(em.p.Code, word.Functor(sym, len(args)))
	child := base
	for _, x := range args {
		if em.a.Kind(x) == term.Compound {
			em.p.Code = append(em.p.Code, word.Skel(word.Addr(em.offs[child])))
			child++
			continue
		}
		w, err := em.argWord(x)
		if err != nil {
			return 0, err
		}
		em.p.Code = append(em.p.Code, w)
	}
	em.offs = em.offs[:base]
	return off, nil
}

// argWord encodes one argument position.
func (em *emitter) argWord(t term.Ref) (word.Word, error) {
	a := em.a
	switch a.Kind(t) {
	case term.Var:
		v := em.cl.lookup(a.VarNum(t))
		var tag word.Tag
		switch {
		case v == nil || v.kind == kindVoid:
			return word.New(word.TagVoid, 0), nil
		case v.kind == kindLocal:
			tag = word.TagLocal
		default:
			tag = word.TagGlobal
		}
		data := uint32(v.index)
		if v.lazy && !v.emitted {
			// First top-level occurrence of a lazily-materialized
			// variable: the firmware writes the cell instead of reading
			// it. (Lazy variables never occur inside skeletons, so code
			// emission order equals execution order for them.)
			v.emitted = true
			data |= word.FreshBit
		}
		return word.New(tag, data), nil
	case term.Int:
		n := a.IntVal(t)
		if n < math.MinInt32 || n > math.MaxInt32 {
			return 0, em.p.errf(em.clause, "integer %d does not fit in a 32-bit data part", n)
		}
		return word.Int32(int32(n)), nil
	case term.Atom:
		if a.Sym(t) == term.IDNil {
			return word.Nil, nil
		}
		return word.Atom(em.p.sym(a.Sym(t))), nil
	default: // a compound
		// A top-level argument: prepareArg emitted its skeleton.
		off := em.offs[em.next]
		em.next++
		return word.Skel(word.Addr(off)), nil
	}
}
