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
	"repro/internal/parse"
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
// Compilation (Compile, CompileGoal and their wrappers) is serialized
// by an internal mutex, so concurrent compiles are safe. Once compiled,
// the image may be shared read-only by any number of machines running
// concurrently; the only runtime mutations a shared program tolerates
// are symbol interning (guarded in term.Symbols) and first-argument
// index builds (guarded here). Dynamic predicates (assertz/retract) mutate the clause lists and
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
	// scratch is the compile state, from a pool, while a compile holds
	// mu; nil otherwise.
	scratch *scratch
}

// scratch is the per-clause compile state, reused from a pool so that
// compiling a clause (or a whole program) allocates nothing of its own.
// Compile and CompileGoal clear it and return it to the pool, so a
// compiled image keeps no reference to the arena it was compiled from.
type scratch struct {
	a    *term.Arena // the arena being compiled
	syms []symInfo   // by arena symbol
	cl   classifier
	// goals and work are stacks: a query's lifted predicates compile
	// while its own goals wait, and a lifted batch compiles while the
	// rest of its enclosing batch waits.
	goals []goal     // normalized bodies
	work  []pending  // clauses of the batches being compiled
	offs  []int      // skeleton offsets, see emitter
	vars  []term.Ref // varsOf's result
	seen  []bool     // variable numbers met by varsOf
}

// symInfo is what a compile has learnt about one arena symbol, so that
// it interns and looks up each name once, not at every occurrence.
type symInfo struct {
	g     uint32 // the program symbol plus one; 0 until first use
	arity int32  // the arity plus one of the built-in lookup below; 0 before one
	bi    Builtin
	isBI  bool
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// bind starts a compile from a, under mu.
func (p *Program) bind(a *term.Arena) {
	s := scratches.Get().(*scratch)
	s.a = a
	s.syms = slices.Grow(s.syms[:0], a.NumSyms())[:a.NumSyms()]
	clear(s.syms)
	p.scratch = s
}

// unbind ends a compile. Entries past each scratch slice's length are
// always zero: the compile paths append to these fields directly and
// clear what they truncate.
func (p *Program) unbind() {
	s := p.scratch
	p.scratch = nil
	s.a = nil
	s.cl.reset(false)
	clear(s.goals)
	s.goals = s.goals[:0]
	clear(s.work)
	s.work = s.work[:0]
	scratches.Put(s)
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

// errf reports an error in clause c of the arena being compiled.
func (p *Program) errf(c term.Clause, format string, args ...interface{}) error {
	return &Error{Clause: p.scratch.a.Text(c), Msg: fmt.Sprintf(format, args...)}
}

// sym returns the program symbol of arena symbol id, interning its name
// on first use. Symbols are numbered in the order of first use, so the
// compile calls sym exactly where the image needs a symbol.
func (p *Program) sym(id int32) uint32 {
	si := p.symInfo(id)
	if si.g == 0 {
		si.g = p.Syms.Intern(p.scratch.a.Name(id)) + 1
	}
	return si.g - 1
}

// lookupSym returns the program symbol of arena symbol id without
// interning it.
func (p *Program) lookupSym(id int32) (uint32, bool) {
	if si := p.symInfo(id); si.g != 0 {
		return si.g - 1, true
	}
	return p.Syms.Lookup(p.scratch.a.Name(id))
}

// builtin resolves arena symbol id with the given arity to a built-in.
func (p *Program) builtin(id int32, arity int) (Builtin, bool) {
	si := p.symInfo(id)
	if int(si.arity) != arity+1 {
		si.bi, si.isBI = LookupBuiltin(p.scratch.a.Name(id), arity)
		si.arity = int32(arity + 1)
	}
	return si.bi, si.isBI
}

func (p *Program) symInfo(id int32) *symInfo {
	s := p.scratch
	if int(id) >= len(s.syms) {
		// The compile interned a lifted predicate's name.
		s.syms = append(s.syms, make([]symInfo, int(id)+1-len(s.syms))...)
	}
	return &s.syms[id]
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

func (p *Program) ensureProc(id int32, arity int) int {
	sym := p.sym(id)
	key := procKey(sym, arity)
	if idx, ok := p.procIndex[key]; ok {
		return idx
	}
	idx := len(p.Procs)
	p.Procs = append(p.Procs, &Proc{Name: p.Syms.Name(sym), Sym: sym, Arity: arity})
	p.procIndex[key] = idx
	return idx
}

// goal is a normalized body goal.
type goal struct {
	cut     bool
	builtin Builtin
	isBI    bool
	proc    int // user proc index when !isBI && !cut
	args    []term.Ref
}

// pending is one clause of a batch, registered and awaiting code.
type pending struct {
	src   term.Clause
	head  term.Ref
	body  term.Ref // term.NoRef for a fact
	owner int
}

// AddClauses compiles a batch of source clauses into the program,
// through an arena: see Compile.
func (p *Program) AddClauses(clauses []*term.Term) error {
	a := term.GetArena()
	defer a.Release()
	for _, c := range clauses {
		a.AddTerm(c)
	}
	return p.Compile(a, a.Clauses())
}

// AddSource parses a program text and compiles its clauses.
func (p *Program) AddSource(path, src string) error {
	a := term.GetArena()
	defer a.Release()
	cs, err := parse.Read(a, path, src)
	if err != nil {
		return err
	}
	return p.Compile(a, cs)
}

// Compile compiles a batch of clauses of arena a into the program.
// Within the batch, forward references are allowed; references to
// predicates of earlier batches resolve too. A clause of the form
// (H :- B) is a rule, anything else a fact. Directives (:- G) are
// rejected — run goals through a Query instead. Compile appends the
// auxiliary clauses it lifts out of control constructs to a.
func (p *Program) Compile(a *term.Arena, cs []term.Clause) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.bind(a)
	defer p.unbind()
	// A compound's code is its functor word and argument words, and a
	// clause adds its info and end words: room for that saves the image
	// regrowing clause by clause. Clause structure (':-', ',') makes it
	// an overestimate for rules.
	comps, args := a.Size()
	p.Code = slices.Grow(p.Code, comps+args+2*len(cs))
	p.ranges = slices.Grow(p.ranges, len(cs))
	return p.addClauses(cs)
}

// addClauses is Compile without the lock, for the recursive compilation
// of lifted auxiliary predicates. A nested batch stacks its clauses
// above the enclosing batch's in the scratch work list.
func (p *Program) addClauses(cs []term.Clause) error {
	a := p.scratch.a
	base := len(p.scratch.work)

	// Pass 1: register every defined predicate so bodies can resolve
	// forward references.
	for _, c := range cs {
		head, body := c.Root, term.NoRef
		if a.Kind(head) == term.Compound && a.Sym(head) == term.IDNeck {
			switch args := a.Args(head); len(args) {
			case 2:
				head, body = args[0], args[1]
			case 1:
				return p.errf(c, "directives are not supported; compile a query instead")
			}
		}
		if k := a.Kind(head); k != term.Atom && k != term.Compound {
			return p.errf(c, "clause head must be an atom or compound term, got %s", a.Text(term.Clause{Root: head, Vars: c.Vars}))
		}
		arity := a.Arity(head)
		if arity > MaxArity {
			return p.errf(c, "head arity %d exceeds %d", arity, MaxArity)
		}
		if _, isBI := p.builtin(a.Sym(head), arity); isBI {
			return p.errf(c, "cannot redefine built-in %s/%d", a.Name(a.Sym(head)), arity)
		}
		idx := p.ensureProc(a.Sym(head), arity)
		p.scratch.work = append(p.scratch.work, pending{src: c, head: head, body: body, owner: idx})
	}

	// Room for each run of clauses of one procedure, as for the code.
	work := p.scratch.work[base:]
	for i := 0; i < len(work); {
		j := i + 1
		for j < len(work) && work[j].owner == work[i].owner {
			j++
		}
		proc := p.Procs[work[i].owner]
		proc.Clauses = slices.Grow(proc.Clauses, j-i)
		i = j
	}

	// Pass 2: compile. A lifted predicate's batch may grow the work
	// list, so entries are read by index.
	for i, end := base, len(p.scratch.work); i < end; i++ {
		if err := p.compileClause(p.scratch.work[i]); err != nil {
			return err
		}
	}
	clear(p.scratch.work[base:])
	p.scratch.work = p.scratch.work[:base]
	return nil
}

// CompileQuery compiles a top-level goal, through an arena: see
// CompileGoal.
func (p *Program) CompileQuery(body *term.Term) (*Query, error) {
	a := term.GetArena()
	defer a.Release()
	return p.CompileGoal(a, a.AddTerm(body))
}

// CompileGoal compiles goal c of arena a into a pseudo-clause with arity
// 0 whose variables are all global.
func (p *Program) CompileGoal(a *term.Arena, c term.Clause) (*Query, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.bind(a)
	defer p.unbind()
	base := len(p.scratch.goals)
	var lifted []term.Clause
	if err := p.normalizeBody(c.Root, c, &lifted); err != nil {
		return nil, err
	}
	if err := p.compileLifted(lifted); err != nil {
		return nil, err
	}
	goals := p.scratch.goals[base:]
	cl := &p.scratch.cl
	cl.reset(true)
	cl.scanGoals(a, goals)
	vars := cl.finish()
	if vars.nGlobals > MaxArity {
		return nil, p.errf(c, "query has %d variables; at most %d supported", vars.nGlobals, MaxArity)
	}
	em := emitter{p: p, a: a, cl: cl, clause: c, offs: p.scratch.offs[:0]}
	start, err := em.emitClause(nil, goals, vars)
	p.scratch.offs = em.offs[:0]
	if err != nil {
		return nil, err
	}
	p.ranges = append(p.ranges, codeRange{start: start, end: len(p.Code), proc: -1})
	return &Query{Start: start, Vars: cl.globalNames(vars, a, c), NGlobals: vars.nGlobals}, nil
}

func (p *Program) compileClause(w pending) error {
	a := p.scratch.a
	base := len(p.scratch.goals)
	var lifted []term.Clause
	if w.body != term.NoRef {
		if err := p.normalizeBody(w.body, w.src, &lifted); err != nil {
			return err
		}
	}
	cl := &p.scratch.cl
	cl.reset(false)
	headArgs := a.Args(w.head)
	goals := p.scratch.goals[base:]
	cl.scanArgs(a, headArgs)
	cl.scanGoals(a, goals)
	vars := cl.finish()
	if vars.nLocals > MaxArity {
		return p.errf(w.src, "clause needs %d local variables; at most %d supported", vars.nLocals, MaxArity)
	}
	if vars.nGlobals > MaxArity {
		return p.errf(w.src, "clause needs %d global variables; at most %d supported", vars.nGlobals, MaxArity)
	}
	em := emitter{p: p, a: a, cl: cl, clause: w.src, offs: p.scratch.offs[:0]}
	start, err := em.emitClause(headArgs, goals, vars)
	p.scratch.offs = em.offs[:0]
	if err != nil {
		return err
	}
	p.scratch.popGoals(base)
	proc := p.Procs[w.owner]
	if proc.nDead > 0 {
		proc.alive = append(proc.alive, len(proc.Clauses))
	}
	proc.Clauses = append(proc.Clauses, ClauseInfo{
		Start:    start,
		NLocals:  vars.nLocals,
		NGlobals: vars.nGlobals,
	})
	p.ranges = append(p.ranges, codeRange{start: start, end: len(p.Code), proc: w.owner})
	// Compile any predicates lifted out of control constructs.
	return p.compileLifted(lifted)
}

func (p *Program) compileLifted(lifted []term.Clause) error {
	if len(lifted) == 0 {
		return nil
	}
	return p.addClauses(lifted)
}

// normalizeBody flattens a clause body onto the scratch goal stack,
// lifting disjunction, if-then-else and negation into fresh auxiliary
// predicates whose clauses it appends to lifted.
func (p *Program) normalizeBody(t term.Ref, src term.Clause, lifted *[]term.Clause) error {
	if a := p.scratch.a; a.Is(t, term.IDComma, 2) {
		args := a.Args(t)
		if err := p.normalizeBody(args[0], src, lifted); err != nil {
			return err
		}
		return p.normalizeBody(args[1], src, lifted)
	}
	g, aux, err := p.normalizeGoal(t, src)
	if err != nil {
		return err
	}
	*lifted = append(*lifted, aux...)
	p.scratch.goals = append(p.scratch.goals, g)
	return nil
}

func (p *Program) freshAux() int32 {
	p.auxCount++
	return p.scratch.a.Intern(fmt.Sprintf("$aux%d", p.auxCount))
}

// containsTopCut reports whether a conjunction contains cut at the top
// level (not inside a nested control construct).
func containsTopCut(a *term.Arena, t term.Ref) bool {
	if a.Is(t, term.IDCut, 0) {
		return true
	}
	if a.Is(t, term.IDComma, 2) {
		args := a.Args(t)
		return containsTopCut(a, args[0]) || containsTopCut(a, args[1])
	}
	return false
}

// varsOf returns the distinct named variables of t in order of first
// occurrence, one Ref each. The slice is scratch, valid until the next
// call.
func (p *Program) varsOf(t term.Ref) []term.Ref {
	s := p.scratch
	s.vars = s.vars[:0]
	var walk func(term.Ref)
	walk = func(t term.Ref) {
		switch s.a.Kind(t) {
		case term.Var:
			k := int(s.a.VarNum(t))
			if k == term.Anon {
				return
			}
			if k >= len(s.seen) {
				s.seen = append(s.seen, make([]bool, k+1-len(s.seen))...)
			}
			if !s.seen[k] {
				s.seen[k] = true
				s.vars = append(s.vars, t)
			}
		case term.Compound:
			for _, x := range s.a.Args(t) {
				walk(x)
			}
		}
	}
	walk(t)
	for _, v := range s.vars {
		s.seen[s.a.VarNum(v)] = false
	}
	return s.vars
}

// auxHead adds the head of a lifted predicate: an atom when it has no
// variables, as term.NewCompound makes one.
func (p *Program) auxHead(id int32, vars []term.Ref) term.Ref {
	if len(vars) == 0 {
		return p.scratch.a.Atom(id)
	}
	return p.scratch.a.Compound(id, vars...)
}

func (p *Program) normalizeGoal(t term.Ref, src term.Clause) (goal, []term.Clause, error) {
	a := p.scratch.a
	clause := func(root term.Ref) term.Clause { return term.Clause{Root: root, Vars: src.Vars} }
	rule := func(head, body term.Ref) term.Clause { return clause(a.Compound(term.IDNeck, head, body)) }
	conj := func(x, y term.Ref) term.Ref { return a.Compound(term.IDComma, x, y) }
	switch {
	case a.Kind(t) == term.Var:
		// A variable goal is a metacall.
		return goal{builtin: BCall, isBI: true, args: []term.Ref{t}}, nil, nil

	case a.Kind(t) == term.Int:
		return goal{}, nil, p.errf(src, "integer %d cannot be a goal", a.IntVal(t))

	case a.Is(t, term.IDCut, 0):
		return goal{cut: true}, nil, nil

	case a.Is(t, term.IDSemi, 2):
		args := a.Args(t)
		name := p.freshAux()
		vars := p.varsOf(t)
		p.ensureProc(name, len(vars))
		head := p.auxHead(name, vars)
		var aux []term.Clause
		if a.Is(args[0], term.IDArrow, 2) {
			// (C -> T ; E): the condition's cut is local — lifting is exact.
			c := a.Args(args[0])
			aux = []term.Clause{
				rule(head, conj(c[0], conj(a.Atom(term.IDCut), c[1]))),
				rule(head, args[1]),
			}
		} else {
			if containsTopCut(a, args[0]) || containsTopCut(a, args[1]) {
				return goal{}, nil, p.errf(src, "cut at the top level of a disjunct is not supported (KL0 restriction); restructure the clause")
			}
			aux = []term.Clause{rule(head, args[0]), rule(head, args[1])}
		}
		g, _, err := p.normalizeGoal(head, src)
		return g, aux, err

	case a.Is(t, term.IDArrow, 2):
		// Bare if-then is (C -> T ; fail).
		return p.normalizeGoal(a.Compound(term.IDSemi, t, a.Atom(term.IDFail)), src)

	case a.Is(t, term.IDNot, 1):
		arg := a.Args(t)[0]
		name := p.freshAux()
		vars := p.varsOf(arg)
		p.ensureProc(name, len(vars))
		head := p.auxHead(name, vars)
		aux := []term.Clause{
			rule(head, conj(arg, conj(a.Atom(term.IDCut), a.Atom(term.IDFail)))),
			clause(head),
		}
		g, _, err := p.normalizeGoal(head, src)
		return g, aux, err

	default: // an atom or compound
		arity := a.Arity(t)
		if arity > MaxArity {
			return goal{}, nil, p.errf(src, "goal arity %d exceeds %d", arity, MaxArity)
		}
		if bi, ok := p.builtin(a.Sym(t), arity); ok {
			return goal{builtin: bi, isBI: true, args: a.Args(t)}, nil, nil
		}
		if sym, ok := p.lookupSym(a.Sym(t)); ok {
			if idx, ok := p.procIndex[procKey(sym, arity)]; ok {
				return goal{proc: idx, args: a.Args(t)}, nil, nil
			}
		}
		return goal{}, nil, p.errf(src, "call to undefined predicate %s/%d", a.Name(a.Sym(t)), arity)
	}
}
