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
	name       string
	count      int
	inCompound bool
	kind       varKind
	index      int
	lazy       bool
	emitted    bool
}

// linearVars is the number of distinct variables up to which a clause's
// variables are found by scanning; a clause with more gets a name index.
const linearVars = 32

// classifier scans a clause and decides each variable's kind. A Program
// keeps one and reuses its variable table for every clause it compiles.
type classifier struct {
	forceGlobal bool
	vars        []varInfo      // in order of first occurrence
	byName      map[string]int // index into vars, once len(vars) > linearVars
}

// reset empties the classifier for the next clause, dropping every
// variable name.
func (c *classifier) reset(forceGlobal bool) {
	clear(c.vars)
	c.vars = c.vars[:0]
	c.byName = nil
	c.forceGlobal = forceGlobal
}

// lookup returns the named variable, or nil if the clause has none.
func (c *classifier) lookup(name string) *varInfo {
	if c.byName != nil {
		if i, ok := c.byName[name]; ok {
			return &c.vars[i]
		}
		return nil
	}
	for i := range c.vars {
		if c.vars[i].name == name {
			return &c.vars[i]
		}
	}
	return nil
}

func (c *classifier) touch(name string) *varInfo {
	if name == "_" {
		return nil
	}
	vi := c.lookup(name)
	if vi == nil {
		c.vars = append(c.vars, varInfo{name: name})
		switch {
		case c.byName != nil:
			c.byName[name] = len(c.vars) - 1
		case len(c.vars) > linearVars:
			c.byName = make(map[string]int, 2*len(c.vars))
			for i := range c.vars {
				c.byName[c.vars[i].name] = i
			}
		}
		vi = &c.vars[len(c.vars)-1]
	}
	vi.count++
	return vi
}

// scanTerm records occurrences below the top level (inside a compound).
func (c *classifier) scanTerm(t *term.Term) {
	switch t.Kind {
	case term.Var:
		if vi := c.touch(t.Name); vi != nil {
			vi.inCompound = true
		}
	case term.Compound:
		for _, a := range t.Args {
			c.scanTerm(a)
		}
	}
}

// scanArgs records top-level argument occurrences.
func (c *classifier) scanArgs(args []*term.Term) {
	for _, a := range args {
		if a.Kind == term.Var {
			c.touch(a.Name)
			continue
		}
		c.scanTerm(a)
	}
}

// scanGoals records all body occurrences.
func (c *classifier) scanGoals(goals []goal) {
	for _, g := range goals {
		c.scanArgs(g.args)
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
	err      error
}

func (c *classifier) finish(clause *term.Term) varSet {
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
	if vs.nGlobals > MaxArity {
		vs.err = errf(clause, "clause needs %d global variables; at most %d supported", vs.nGlobals, MaxArity)
	}
	if vs.nLocals > MaxArity {
		vs.err = errf(clause, "clause needs %d local variables; at most %d supported", vs.nLocals, MaxArity)
	}
	return vs
}

// globalNames lists the global variables by slot.
func (c *classifier) globalNames(vs varSet) []string {
	names := make([]string, vs.nGlobals)
	for _, v := range c.vars {
		if v.kind == kindGlobal {
			names[v.index] = v.name
		}
	}
	return names
}

// emitter writes instruction code words for one clause.
type emitter struct {
	p      *Program
	cl     *classifier
	clause *term.Term
	// offs holds skeleton offsets: those of the clause's top-level
	// compound arguments in emission order, read back through next,
	// with each emitSkel's pending children stacked above them.
	offs []int
	next int
}

// emitClause writes all skeletons then the clause proper, returning the
// offset of the info word.
func (em *emitter) emitClause(headArgs []*term.Term, goals []goal, vars varSet) (int, error) {
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
func (em *emitter) prepareArg(t *term.Term) error {
	if t.Kind != term.Compound {
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
func (em *emitter) emitSkel(t *term.Term) (int, error) {
	if len(t.Args) > MaxArity {
		return 0, errf(em.clause, "functor arity %d exceeds %d", len(t.Args), MaxArity)
	}
	base := len(em.offs)
	for _, a := range t.Args {
		if a.Kind == term.Compound {
			off, err := em.emitSkel(a)
			if err != nil {
				return 0, err
			}
			em.offs = append(em.offs, off)
		}
	}
	off := len(em.p.Code)
	sym := em.p.Syms.Intern(t.Functor)
	em.p.Code = append(em.p.Code, word.Functor(sym, len(t.Args)))
	child := base
	for _, a := range t.Args {
		if a.Kind == term.Compound {
			em.p.Code = append(em.p.Code, word.Skel(word.Addr(em.offs[child])))
			child++
			continue
		}
		w, err := em.argWord(a)
		if err != nil {
			return 0, err
		}
		em.p.Code = append(em.p.Code, w)
	}
	em.offs = em.offs[:base]
	return off, nil
}

// argWord encodes one argument position.
func (em *emitter) argWord(t *term.Term) (word.Word, error) {
	switch t.Kind {
	case term.Var:
		if t.Name == "_" {
			return word.New(word.TagVoid, 0), nil
		}
		v := em.cl.lookup(t.Name)
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
		if t.N < math.MinInt32 || t.N > math.MaxInt32 {
			return 0, errf(em.clause, "integer %d does not fit in a 32-bit data part", t.N)
		}
		return word.Int32(int32(t.N)), nil
	case term.Atom:
		if t.Functor == "[]" {
			return word.Nil, nil
		}
		return word.Atom(em.p.Syms.Intern(t.Functor)), nil
	case term.Compound:
		// A top-level argument: prepareArg emitted its skeleton.
		off := em.offs[em.next]
		em.next++
		return word.Skel(word.Addr(off)), nil
	}
	return 0, errf(em.clause, "cannot encode term %s", t)
}
