// Package kl0 compiles Prolog source clauses into the PSI's
// machine-resident KL0 instruction code.
//
// The code model follows the DEC-10 Prolog structure-sharing scheme the
// PSI firmware interprets: each clause becomes an info word (frame
// sizes), head argument words, and body goal words, all in the heap area.
// Compound arguments compile to skeletons — functor word plus argument
// words — also resident in the heap; at run time a compound value is a
// two-word molecule pairing a skeleton address with a global-frame
// address.
//
// Variables are classified per clause: a variable occurring inside a
// compound term is global (it needs a cell in the clause's global frame,
// which outlives the local frame); all other variables are local;
// single-occurrence variables are void and need no cell at all. The
// classical "unsafe variable" rule is the machine's, not the
// compiler's: when tail-recursion optimization releases the local frame
// before the last call, an unbound local passed to that call moves to
// the global stack.
//
// Control constructs ';', '->' and '\+' are lifted into auxiliary
// predicates so the firmware only ever sees conjunctions, cut, built-ins
// and user calls.
package kl0

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/builtin"
	"repro/internal/term"
	"repro/internal/word"
)

// MaxArity is the largest supported predicate or functor arity (the
// functor word packs the arity into 8 bits). The canonical constant
// lives in internal/builtin, shared with the DEC-10 engine.
const MaxArity = builtin.MaxArity

// ClauseInfo locates one compiled clause inside the code image.
type ClauseInfo struct {
	Start    int // offset of the info word
	NLocals  int
	NGlobals int
	// Dead marks a retracted clause: it stays in place (so live choice
	// points keep valid clause numbers) but is skipped by dispatch.
	Dead bool
}

// RetractClause marks clause number k of a procedure dead. Like every
// program mutation it is meant for a program driven by one machine; see
// the sharing contract on Program.
func (p *Program) RetractClause(procIdx, k int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	proc := p.Procs[procIdx]
	if proc.Clauses[k].Dead {
		return
	}
	proc.Clauses[k].Dead = true
	if proc.nDead == 0 {
		proc.alive = make([]int, len(proc.Clauses))
		for i := range proc.alive {
			proc.alive[i] = i
		}
	}
	i, _ := slices.BinarySearch(proc.alive, k)
	proc.alive = slices.Delete(proc.alive, i, i+1)
	proc.nDead++
}

// Proc is one user predicate.
type Proc struct {
	Name    string
	Sym     uint32
	Arity   int
	Clauses []ClauseInfo
	index   atomic.Pointer[ClauseIndex]
	nDead   int // retracted clauses, maintained by RetractClause
	// alive lists the non-retracted clause numbers in source order once
	// nDead > 0 (nil before): RetractClause removes from it, clause
	// compilation appends to it.
	alive []int
}

// Indicator returns name/arity.
func (p *Proc) Indicator() string { return fmt.Sprintf("%s/%d", p.Name, p.Arity) }

// NDead reports how many of the procedure's clauses are retracted, so
// dispatch can decide in O(1) whether a candidate list needs dead-clause
// filtering. Like the clause lists themselves, it is only mutated on
// programs owned by a single machine (see the sharing contract on
// Program).
func (p *Proc) NDead() int { return p.nDead }

// Alive lists the non-retracted clause numbers in source order. It is
// only maintained while NDead() > 0 — dispatch uses the identity list
// otherwise — and the next retraction may rewrite it in place, so
// callers must not retain it.
func (p *Proc) Alive() []int { return p.alive }

// Query is a compiled top-level goal. All query variables are global so
// that answers survive until extraction.
type Query struct {
	Start    int      // offset of the query pseudo-clause info word
	Vars     []string // query variable names; Vars[i] lives in global slot i
	NGlobals int
}

// Program is a compiled KL0 code image plus its procedure table. The
// image is relocatable: TagSkel words and clause starts are offsets into
// Code; the machine loader adds its heap base.
//
// Compilation (AddClauses, CompileQuery) is serialized by an internal
// mutex, so concurrent compiles are safe. Once compiled, the image may be
// shared read-only by any number of machines running concurrently; the
// only runtime mutations a shared program tolerates are symbol interning
// (guarded in term.Symbols) and first-argument index builds (guarded
// here). Dynamic predicates (assertz/retract) mutate the clause lists and
// are only safe on a program owned by a single machine: a machine
// switches to a private Clone before its first such mutation.
type Program struct {
	Syms      *term.Symbols
	Code      []word.Word
	Procs     []*Proc
	mu        sync.Mutex
	procIndex map[uint64]int
	auxCount  int
	// ranges maps compiled code intervals back to the owning procedure,
	// for the predicate profiler. Appended in ascending start order as
	// code is emitted; read without the lock by running machines (the
	// sharing contract: compilation happens before concurrent runs).
	ranges []codeRange
	// scratch is reused by every clause compiled under mu.
	scratch scratch
}

// scratch is a Program's per-clause compile state, reused under mu so
// that compiling a clause allocates nothing of its own. AddClauses and
// CompileQuery clear it before they return: the source terms of one
// parse share slab memory, so a single term left here would keep the
// whole parse alive for as long as the program.
type scratch struct {
	cl classifier
	// goals and work are stacks: a query's lifted predicates compile
	// while its own goals wait, and a lifted batch compiles while the
	// rest of its enclosing batch waits.
	goals []goal    // normalized bodies
	work  []pending // clauses of the batches being compiled
	offs  []int     // skeleton offsets, see emitter
}

// release drops every reference the scratch holds into source terms.
// Entries past each slice's length are always zero: the compile paths
// append to these fields directly and clear what they truncate.
func (s *scratch) release() {
	s.cl.reset(false)
	clear(s.goals)
	s.goals = s.goals[:0]
	clear(s.work)
	s.work = s.work[:0]
}

// popGoals clears the normalized goals stacked above base.
func (s *scratch) popGoals(base int) {
	clear(s.goals[base:])
	s.goals = s.goals[:base]
}

// codeRange attributes the code words [start, end) to procedure proc
// (-1 for query pseudo-clauses).
type codeRange struct {
	start, end int
	proc       int
}

// Clone returns a private copy of the program for a machine about to
// mutate it (assertz/retract). The copy duplicates the code image, the
// procedure table with its clause lists and the code ranges, so its
// code offsets — and hence a machine's heap addresses — are unchanged;
// it starts with no first-argument indexes (they rebuild lazily) and
// shares the concurrency-safe symbol table.
func (p *Program) Clone() *Program {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := &Program{
		Syms:      p.Syms,
		Code:      slices.Clone(p.Code),
		Procs:     make([]*Proc, len(p.Procs)),
		procIndex: maps.Clone(p.procIndex),
		auxCount:  p.auxCount,
		ranges:    slices.Clone(p.ranges),
	}
	for i, proc := range p.Procs {
		c.Procs[i] = &Proc{
			Name:    proc.Name,
			Sym:     proc.Sym,
			Arity:   proc.Arity,
			Clauses: slices.Clone(proc.Clauses),
			nDead:   proc.nDead,
			alive:   slices.Clone(proc.alive),
		}
	}
	return c
}

// NewProgram returns an empty program sharing the given symbol table.
func NewProgram(syms *term.Symbols) *Program {
	if syms == nil {
		syms = term.NewSymbols()
	}
	return &Program{Syms: syms, procIndex: make(map[uint64]int)}
}

// Error is a compilation error.
type Error struct {
	Clause string
	Msg    string
}

func (e *Error) Error() string {
	if e.Clause == "" {
		return "kl0: " + e.Msg
	}
	return fmt.Sprintf("kl0: in clause (%s): %s", e.Clause, e.Msg)
}

func errf(clause *term.Term, format string, args ...interface{}) error {
	c := ""
	if clause != nil {
		c = clause.String()
	}
	return &Error{Clause: c, Msg: fmt.Sprintf(format, args...)}
}

func procKey(sym uint32, arity int) uint64 { return uint64(sym)<<8 | uint64(arity) }

// LookupProc finds the procedure index for name/arity.
func (p *Program) LookupProc(name string, arity int) (int, bool) {
	sym, ok := p.Syms.Lookup(name)
	if !ok {
		return 0, false
	}
	p.mu.Lock()
	idx, ok := p.procIndex[procKey(sym, arity)]
	p.mu.Unlock()
	return idx, ok
}

// LookupProcSym finds the procedure index for an interned symbol/arity,
// used by the machine's metacall.
func (p *Program) LookupProcSym(sym uint32, arity int) (int, bool) {
	p.mu.Lock()
	idx, ok := p.procIndex[procKey(sym, arity)]
	p.mu.Unlock()
	return idx, ok
}

// ProcAt returns the index of the procedure whose compiled clause code
// contains the heap code offset, or -1 when the offset belongs to a
// query pseudo-clause, a runtime metacall stub beyond the compiled
// image, or skeleton data. The predicate profiler uses it to attribute
// execution to the predicate owning the current code pointer.
func (p *Program) ProcAt(off int) int {
	rs := p.ranges
	lo, hi := 0, len(rs)
	for lo < hi {
		mid := (lo + hi) / 2
		if rs[mid].start <= off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// rs[lo-1] is the last range starting at or before off.
	if lo > 0 && off < rs[lo-1].end {
		return rs[lo-1].proc
	}
	return -1
}

// ProcName names a ProcAt result: the predicate indicator, or "<main>"
// for code outside every compiled predicate (queries, metacall stubs).
func (p *Program) ProcName(id int) string {
	if id < 0 || id >= len(p.Procs) {
		return "<main>"
	}
	return p.Procs[id].Indicator()
}

func (p *Program) ensureProc(name string, arity int) int {
	sym := p.Syms.Intern(name)
	key := procKey(sym, arity)
	if idx, ok := p.procIndex[key]; ok {
		return idx
	}
	idx := len(p.Procs)
	p.Procs = append(p.Procs, &Proc{Name: name, Sym: sym, Arity: arity})
	p.procIndex[key] = idx
	return idx
}

// goal is a normalized body goal.
type goal struct {
	cut     bool
	builtin Builtin
	isBI    bool
	proc    int // user proc index when !isBI && !cut
	args    []*term.Term
}

// pending is one clause of a batch, registered and awaiting code.
type pending struct {
	src   *term.Term
	head  *term.Term
	body  *term.Term
	owner int
}

// AddClauses compiles a batch of source clauses into the program. Within
// the batch, forward references are allowed; references to predicates of
// earlier batches resolve too. A clause of the form (H :- B) is a rule,
// anything else a fact. Directives (:- G) are rejected — run goals
// through a Query instead.
func (p *Program) AddClauses(clauses []*term.Term) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer p.scratch.release()
	return p.addClauses(clauses)
}

// addClauses is AddClauses without the lock, for the recursive
// compilation of lifted auxiliary predicates. A nested batch stacks its
// clauses above the enclosing batch's in the scratch work list.
func (p *Program) addClauses(clauses []*term.Term) error {
	base := len(p.scratch.work)

	// Pass 1: register every defined predicate so bodies can resolve
	// forward references.
	for _, c := range clauses {
		head, body := c, (*term.Term)(nil)
		if c.Kind == term.Compound && c.Functor == ":-" {
			switch len(c.Args) {
			case 2:
				head, body = c.Args[0], c.Args[1]
			case 1:
				return errf(c, "directives are not supported; compile a query instead")
			}
		}
		if head.Kind != term.Atom && head.Kind != term.Compound {
			return errf(c, "clause head must be an atom or compound term, got %s", head)
		}
		if head.Arity() > MaxArity {
			return errf(c, "head arity %d exceeds %d", head.Arity(), MaxArity)
		}
		if _, isBI := LookupBuiltin(head.Functor, head.Arity()); isBI {
			return errf(c, "cannot redefine built-in %s/%d", head.Functor, head.Arity())
		}
		idx := p.ensureProc(head.Functor, head.Arity())
		p.scratch.work = append(p.scratch.work, pending{src: c, head: head, body: body, owner: idx})
	}

	// Pass 2: compile. A lifted predicate's batch may grow the work
	// list, so entries are read by index.
	for i, end := base, len(p.scratch.work); i < end; i++ {
		w := p.scratch.work[i]
		if err := p.compileClause(w.src, w.head, w.body, w.owner); err != nil {
			return err
		}
	}
	clear(p.scratch.work[base:])
	p.scratch.work = p.scratch.work[:base]
	return nil
}

// CompileQuery compiles a top-level goal into a pseudo-clause with arity
// 0 whose variables are all global.
func (p *Program) CompileQuery(body *term.Term) (*Query, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer p.scratch.release()
	base := len(p.scratch.goals)
	var lifted []*term.Term
	if err := p.normalizeBody(body, body, &lifted); err != nil {
		return nil, err
	}
	if err := p.compileLifted(lifted); err != nil {
		return nil, err
	}
	goals := p.scratch.goals[base:]
	cl := &p.scratch.cl
	cl.reset(true)
	cl.scanGoals(goals)
	vars := cl.finish(nil)
	if vars.nGlobals > MaxArity {
		return nil, errf(body, "query has %d variables; at most %d supported", vars.nGlobals, MaxArity)
	}
	em := emitter{p: p, cl: cl, clause: body, offs: p.scratch.offs[:0]}
	start, err := em.emitClause(nil, goals, vars)
	p.scratch.offs = em.offs[:0]
	if err != nil {
		return nil, err
	}
	p.ranges = append(p.ranges, codeRange{start: start, end: len(p.Code), proc: -1})
	return &Query{Start: start, Vars: cl.globalNames(vars), NGlobals: vars.nGlobals}, nil
}

func (p *Program) compileClause(src, head, body *term.Term, owner int) error {
	base := len(p.scratch.goals)
	var lifted []*term.Term
	if body != nil {
		if err := p.normalizeBody(body, src, &lifted); err != nil {
			return err
		}
	}
	cl := &p.scratch.cl
	cl.reset(false)
	var headArgs []*term.Term
	if head.Kind == term.Compound {
		headArgs = head.Args
	}
	goals := p.scratch.goals[base:]
	cl.scanArgs(headArgs)
	cl.scanGoals(goals)
	vars := cl.finish(src)
	if vars.err != nil {
		return vars.err
	}
	em := emitter{p: p, cl: cl, clause: src, offs: p.scratch.offs[:0]}
	start, err := em.emitClause(headArgs, goals, vars)
	p.scratch.offs = em.offs[:0]
	if err != nil {
		return err
	}
	p.scratch.popGoals(base)
	proc := p.Procs[owner]
	if proc.nDead > 0 {
		proc.alive = append(proc.alive, len(proc.Clauses))
	}
	proc.Clauses = append(proc.Clauses, ClauseInfo{
		Start:    start,
		NLocals:  vars.nLocals,
		NGlobals: vars.nGlobals,
	})
	p.ranges = append(p.ranges, codeRange{start: start, end: len(p.Code), proc: owner})
	// Compile any predicates lifted out of control constructs.
	return p.compileLifted(lifted)
}

func (p *Program) compileLifted(lifted []*term.Term) error {
	if len(lifted) == 0 {
		return nil
	}
	return p.addClauses(lifted)
}

// normalizeBody flattens a clause body onto the scratch goal stack,
// lifting disjunction, if-then-else and negation into fresh auxiliary
// predicates whose clauses it appends to lifted.
func (p *Program) normalizeBody(t, src *term.Term, lifted *[]*term.Term) error {
	if t.Kind == term.Compound && t.Functor == "," && len(t.Args) == 2 {
		if err := p.normalizeBody(t.Args[0], src, lifted); err != nil {
			return err
		}
		return p.normalizeBody(t.Args[1], src, lifted)
	}
	g, aux, err := p.normalizeGoal(t, src)
	if err != nil {
		return err
	}
	*lifted = append(*lifted, aux...)
	p.scratch.goals = append(p.scratch.goals, g)
	return nil
}

func (p *Program) freshAux() string {
	p.auxCount++
	return fmt.Sprintf("$aux%d", p.auxCount)
}

// containsTopCut reports whether a conjunction contains cut at the top
// level (not inside a nested control construct).
func containsTopCut(t *term.Term) bool {
	if t.Kind == term.Atom && t.Functor == "!" {
		return true
	}
	if t.Kind == term.Compound && t.Functor == "," && len(t.Args) == 2 {
		return containsTopCut(t.Args[0]) || containsTopCut(t.Args[1])
	}
	return false
}

func auxHead(name string, varNames []string) *term.Term {
	args := make([]*term.Term, len(varNames))
	for i, v := range varNames {
		args[i] = term.NewVar(v)
	}
	return term.NewCompound(name, args...)
}

func (p *Program) normalizeGoal(t *term.Term, src *term.Term) (goal, []*term.Term, error) {
	switch {
	case t.Kind == term.Var:
		// A variable goal is a metacall.
		return goal{builtin: BCall, isBI: true, args: []*term.Term{t}}, nil, nil

	case t.Kind == term.Int:
		return goal{}, nil, errf(src, "integer %d cannot be a goal", t.N)

	case t.Kind == term.Atom && t.Functor == "!":
		return goal{cut: true}, nil, nil

	case t.Kind == term.Compound && t.Functor == ";" && len(t.Args) == 2:
		name := p.freshAux()
		vars := t.Vars()
		p.ensureProc(name, len(vars))
		head := auxHead(name, vars)
		var aux []*term.Term
		if c, ok := splitIfThen(t.Args[0]); ok {
			// (C -> T ; E): the condition's cut is local — lifting is exact.
			aux = []*term.Term{
				term.NewCompound(":-", head, conj(c.cond, conj(term.NewAtom("!"), c.then))),
				term.NewCompound(":-", head, t.Args[1]),
			}
		} else {
			if containsTopCut(t.Args[0]) || containsTopCut(t.Args[1]) {
				return goal{}, nil, errf(src, "cut at the top level of a disjunct is not supported (KL0 restriction); restructure the clause")
			}
			aux = []*term.Term{
				term.NewCompound(":-", head, t.Args[0]),
				term.NewCompound(":-", head, t.Args[1]),
			}
		}
		g, _, err := p.normalizeGoal(head, src)
		return g, aux, err

	case t.Kind == term.Compound && t.Functor == "->" && len(t.Args) == 2:
		// Bare if-then is (C -> T ; fail).
		return p.normalizeGoal(term.NewCompound(";", t, term.NewAtom("fail")), src)

	case t.Kind == term.Compound && t.Functor == "\\+" && len(t.Args) == 1:
		name := p.freshAux()
		vars := t.Args[0].Vars()
		p.ensureProc(name, len(vars))
		head := auxHead(name, vars)
		aux := []*term.Term{
			term.NewCompound(":-", head,
				conj(t.Args[0], conj(term.NewAtom("!"), term.NewAtom("fail")))),
			head,
		}
		g, _, err := p.normalizeGoal(head, src)
		return g, aux, err

	case t.Kind == term.Atom || t.Kind == term.Compound:
		if t.Arity() > MaxArity {
			return goal{}, nil, errf(src, "goal arity %d exceeds %d", t.Arity(), MaxArity)
		}
		if bi, ok := LookupBuiltin(t.Functor, t.Arity()); ok {
			return goal{builtin: bi, isBI: true, args: t.Args}, nil, nil
		}
		sym, ok := p.Syms.Lookup(t.Functor)
		if ok {
			if idx, ok := p.procIndex[procKey(sym, t.Arity())]; ok {
				return goal{proc: idx, args: t.Args}, nil, nil
			}
		}
		return goal{}, nil, errf(src, "call to undefined predicate %s", t.Indicator())
	}
	return goal{}, nil, errf(src, "malformed goal %s", t)
}

type ifThen struct{ cond, then *term.Term }

func splitIfThen(t *term.Term) (ifThen, bool) {
	if t.Kind == term.Compound && t.Functor == "->" && len(t.Args) == 2 {
		return ifThen{t.Args[0], t.Args[1]}, true
	}
	return ifThen{}, false
}

func conj(a, b *term.Term) *term.Term { return term.NewCompound(",", a, b) }
