package dec10

import (
	"fmt"

	"repro/internal/kl0"
	"repro/internal/parse"
	"repro/internal/term"
)

// Program is a compiled code image.
type Program struct {
	Syms      *term.Symbols
	Code      []instr
	Procs     []*Proc
	procIndex map[uint64]int
	MaxReg    int
	auxCount  int
	queryN    int
}

// NewProgram returns an empty program.
func NewProgram(syms *term.Symbols) *Program {
	if syms == nil {
		syms = term.NewSymbols()
	}
	return &Program{Syms: syms, procIndex: make(map[uint64]int), MaxReg: 16}
}

func pKey(sym uint32, arity int) uint64 { return uint64(sym)<<8 | uint64(arity) }

// LookupProc finds a procedure index.
func (p *Program) LookupProc(name string, arity int) (int, bool) {
	sym, ok := p.Syms.Lookup(name)
	if !ok {
		return 0, false
	}
	i, ok := p.procIndex[pKey(sym, arity)]
	return i, ok
}

// LookupProcSym finds a procedure index by symbol (metacall).
func (p *Program) LookupProcSym(sym uint32, arity int) (int, bool) {
	i, ok := p.procIndex[pKey(sym, arity)]
	return i, ok
}

func (p *Program) ensureProc(name string, arity int) int {
	sym := p.Syms.Intern(name)
	key := pKey(sym, arity)
	if i, ok := p.procIndex[key]; ok {
		return i
	}
	i := len(p.Procs)
	p.Procs = append(p.Procs, &Proc{Name: name, Sym: sym, Arity: arity, Entry: -1})
	p.procIndex[key] = i
	return i
}

// cgoal is one normalized body goal.
type cgoal struct {
	cut  bool
	isBI bool
	bi   kl0.Builtin
	proc int
	args []*term.Term
}

// clauseSrc is one normalized clause awaiting code generation.
type clauseSrc struct {
	head  *term.Term
	goals []cgoal
}

// AddSource parses a program text and compiles its clauses as one batch.
func (p *Program) AddSource(path, src string) error {
	cs, err := parse.Clauses(path, src)
	if err != nil {
		return err
	}
	return p.AddClauses(cs)
}

// AddClauses compiles a batch of clauses. All clauses of a predicate must
// appear in the same batch (the indexing blocks are generated per batch).
func (p *Program) AddClauses(clauses []*term.Term) error {
	perProc := map[int][]clauseSrc{}
	var order []int

	var addClause func(c *term.Term) error
	var lifted []*term.Term

	addClause = func(c *term.Term) error {
		head, body := c, (*term.Term)(nil)
		if c.Kind == term.Compound && c.Functor == ":-" {
			switch len(c.Args) {
			case 2:
				head, body = c.Args[0], c.Args[1]
			case 1:
				return fmt.Errorf("dec10: directives are not supported (%s)", c)
			}
		}
		if head.Kind != term.Atom && head.Kind != term.Compound {
			return fmt.Errorf("dec10: bad clause head %s", c)
		}
		if head.Arity() > kl0.MaxArity {
			return fmt.Errorf("dec10: arity too large in %s", c)
		}
		if _, isBI := kl0.LookupBuiltin(head.Functor, head.Arity()); isBI {
			return fmt.Errorf("dec10: cannot redefine builtin %s", head.Indicator())
		}
		idx := p.ensureProc(head.Functor, head.Arity())
		if p.Procs[idx].Entry >= 0 {
			return fmt.Errorf("dec10: predicate %s defined across batches", p.Procs[idx].Indicator())
		}
		var goals []cgoal
		if body != nil {
			var err error
			goals, err = p.normalizeBody(body, &lifted)
			if err != nil {
				return fmt.Errorf("dec10: in clause (%s): %v", c, err)
			}
		}
		if _, seen := perProc[idx]; !seen {
			order = append(order, idx)
		}
		perProc[idx] = append(perProc[idx], clauseSrc{head: head, goals: goals})
		return nil
	}

	for _, c := range clauses {
		if err := addClause(c); err != nil {
			return err
		}
	}
	// Lifted auxiliary clauses join the same batch (they may lift
	// further).
	for len(lifted) > 0 {
		c := lifted[0]
		lifted = lifted[1:]
		if err := addClause(c); err != nil {
			return err
		}
	}

	for _, idx := range order {
		if err := p.compileProc(idx, perProc[idx]); err != nil {
			return err
		}
	}
	// Undefined predicates are detected at run time (a call to a proc
	// with no entry reports an error), so cross-batch forward references
	// can be linked by a later AddClauses call.
	return nil
}

// normalizeBody flattens conjunctions, lifting control constructs.
func (p *Program) normalizeBody(body *term.Term, lifted *[]*term.Term) ([]cgoal, error) {
	var goals []cgoal
	var walk func(*term.Term) error
	walk = func(t *term.Term) error {
		if t.Kind == term.Compound && t.Functor == "," && len(t.Args) == 2 {
			if err := walk(t.Args[0]); err != nil {
				return err
			}
			return walk(t.Args[1])
		}
		g, err := p.normalizeGoal(t, lifted)
		if err != nil {
			return err
		}
		goals = append(goals, g)
		return nil
	}
	if err := walk(body); err != nil {
		return nil, err
	}
	return goals, nil
}

func (p *Program) freshAux() string {
	p.auxCount++
	return fmt.Sprintf("$daux%d", p.auxCount)
}

func auxHead(name string, vars []string) *term.Term {
	args := make([]*term.Term, len(vars))
	for i, v := range vars {
		args[i] = term.NewVar(v)
	}
	return term.NewCompound(name, args...)
}

func conj(a, b *term.Term) *term.Term { return term.NewCompound(",", a, b) }

func hasTopCut(t *term.Term) bool {
	if t.Kind == term.Atom && t.Functor == "!" {
		return true
	}
	if t.Kind == term.Compound && t.Functor == "," && len(t.Args) == 2 {
		return hasTopCut(t.Args[0]) || hasTopCut(t.Args[1])
	}
	return false
}

func (p *Program) normalizeGoal(t *term.Term, lifted *[]*term.Term) (cgoal, error) {
	switch {
	case t.Kind == term.Var:
		return cgoal{isBI: true, bi: kl0.BCall, args: []*term.Term{t}}, nil
	case t.Kind == term.Int:
		return cgoal{}, fmt.Errorf("integer goal %d", t.N)
	case t.Kind == term.Atom && t.Functor == "!":
		return cgoal{cut: true}, nil
	case t.Kind == term.Compound && t.Functor == ";" && len(t.Args) == 2:
		name := p.freshAux()
		vars := t.Vars()
		p.ensureProc(name, len(vars))
		head := auxHead(name, vars)
		if t.Args[0].Kind == term.Compound && t.Args[0].Functor == "->" && len(t.Args[0].Args) == 2 {
			c, th := t.Args[0].Args[0], t.Args[0].Args[1]
			*lifted = append(*lifted,
				term.NewCompound(":-", head, conj(c, conj(term.NewAtom("!"), th))),
				term.NewCompound(":-", head, t.Args[1]))
		} else {
			if hasTopCut(t.Args[0]) || hasTopCut(t.Args[1]) {
				return cgoal{}, fmt.Errorf("cut inside a disjunct is not supported")
			}
			*lifted = append(*lifted,
				term.NewCompound(":-", head, t.Args[0]),
				term.NewCompound(":-", head, t.Args[1]))
		}
		return p.normalizeGoal(head, lifted)
	case t.Kind == term.Compound && t.Functor == "->" && len(t.Args) == 2:
		return p.normalizeGoal(term.NewCompound(";", t, term.NewAtom("fail")), lifted)
	case t.Kind == term.Compound && t.Functor == "\\+" && len(t.Args) == 1:
		name := p.freshAux()
		vars := t.Args[0].Vars()
		p.ensureProc(name, len(vars))
		head := auxHead(name, vars)
		*lifted = append(*lifted,
			term.NewCompound(":-", head, conj(t.Args[0], conj(term.NewAtom("!"), term.NewAtom("fail")))),
			head)
		return p.normalizeGoal(head, lifted)
	case t.Kind == term.Atom || t.Kind == term.Compound:
		if bi, ok := kl0.LookupBuiltin(t.Functor, t.Arity()); ok {
			return cgoal{isBI: true, bi: bi, args: t.Args}, nil
		}
		idx := p.ensureProc(t.Functor, t.Arity())
		return cgoal{proc: idx, args: t.Args}, nil
	}
	return cgoal{}, fmt.Errorf("malformed goal %s", t)
}

// ---- per-clause compilation --------------------------------------------

// varClass holds a variable's allocation.
type varClass struct {
	perm  bool
	index int // Y index or X register
	count int
	seen  bool // emitted first occurrence
}

type clauseComp struct {
	p       *Program
	vars    map[string]*varClass
	nperm   int
	nextX   int
	maxA    int
	haveEnv bool
	code    []instr
}

// classify assigns permanent/temporary homes. Chunks are delimited by
// user calls (and metacalls): head+leading goals form chunk 0.
func classify(head *term.Term, goals []cgoal, baseX int) (map[string]*varClass, int, int) {
	chunkOf := map[string]map[int]bool{}
	counts := map[string]int{}
	var order []string
	record := func(name string, chunk int) {
		if name == "_" {
			return
		}
		if chunkOf[name] == nil {
			chunkOf[name] = map[int]bool{}
			order = append(order, name)
		}
		chunkOf[name][chunk] = true
		counts[name]++
	}
	var walk func(t *term.Term, chunk int)
	walk = func(t *term.Term, chunk int) {
		switch t.Kind {
		case term.Var:
			record(t.Name, chunk)
		case term.Compound:
			for _, a := range t.Args {
				walk(a, chunk)
			}
		}
	}
	chunk := 0
	if head != nil {
		for _, a := range head.Args {
			walk(a, 0)
		}
	}
	for _, g := range goals {
		for _, a := range g.args {
			walk(a, chunk)
		}
		if !g.isBI && !g.cut || g.isBI && (g.bi == kl0.BCall || g.bi == kl0.BFindall) {
			chunk++
		}
	}
	vars := map[string]*varClass{}
	nperm := 0
	nextX := baseX
	for _, name := range order {
		vc := &varClass{count: counts[name]}
		if len(chunkOf[name]) > 1 {
			vc.perm = true
			vc.index = nperm
			nperm++
		} else {
			vc.index = nextX
			nextX++
		}
		vars[name] = vc
	}
	return vars, nperm, nextX
}

// compileClause emits code for one clause and returns its start index.
func (p *Program) compileClause(head *term.Term, goals []cgoal) (int, error) {
	maxA := head.Arity()
	for _, g := range goals {
		if len(g.args) > maxA {
			maxA = len(g.args)
		}
	}
	// Temporaries for flattened structures are allocated above the
	// variable homes, which sit above the argument registers.
	vars, nperm, nextX := classify(head, goals, maxA)
	cc := &clauseComp{p: p, maxA: maxA, nextX: nextX}
	cc.vars = vars
	cc.nperm = nperm

	userCalls := 0
	lastIsUserCall := false
	for i, g := range goals {
		if !g.isBI && !g.cut {
			userCalls++
			lastIsUserCall = i == len(goals)-1
		} else if g.isBI && (g.bi == kl0.BCall || g.bi == kl0.BFindall) {
			// A metacall or findall transfers control like a call (it
			// clobbers the registers), but never tail-calls, so it needs
			// an environment even in final position.
			userCalls++
			if i == len(goals)-1 {
				lastIsUserCall = false
			}
		}
	}
	hasCut := false
	for _, g := range goals {
		if g.cut {
			hasCut = true
		}
	}
	cc.haveEnv = nperm > 0 || hasCut || userCalls > 1 || (userCalls == 1 && !lastIsUserCall)

	start := len(p.Code)
	if cc.haveEnv {
		cc.emit(instr{op: opAllocate, a: int32(nperm)})
	}
	// Head.
	for i, a := range head.Args {
		if err := cc.emitGet(a, i); err != nil {
			return 0, err
		}
	}
	// Body.
	for gi, g := range goals {
		last := gi == len(goals)-1
		switch {
		case g.cut:
			cc.emit(instr{op: opCut})
			if last {
				cc.finishBody()
			}
		case g.isBI && g.bi != kl0.BCall:
			for i, a := range g.args {
				if err := cc.emitPut(a, i); err != nil {
					return 0, err
				}
			}
			cc.emit(instr{op: opBuiltin, bi: g.bi, a: int32(len(g.args))})
			if last {
				cc.finishBody()
			}
		case g.isBI: // metacall
			for i, a := range g.args {
				if err := cc.emitPut(a, i); err != nil {
					return 0, err
				}
			}
			cc.emit(instr{op: opBuiltin, bi: kl0.BCall, a: int32(len(g.args))})
			if last {
				cc.finishBody()
			}
		default:
			for i, a := range g.args {
				if err := cc.emitPut(a, i); err != nil {
					return 0, err
				}
			}
			if last && cc.haveEnv {
				cc.emit(instr{op: opDeallocate})
				cc.emit(instr{op: opExecute, a: int32(g.proc)})
			} else if last {
				cc.emit(instr{op: opExecute, a: int32(g.proc)})
			} else {
				cc.emit(instr{op: opCall, a: int32(g.proc)})
			}
		}
	}
	if len(goals) == 0 {
		cc.emit(instr{op: opProceed})
	}
	if cc.nextX > p.MaxReg {
		p.MaxReg = cc.nextX
	}
	p.Code = append(p.Code, cc.code...)
	return start, nil
}

func (cc *clauseComp) emit(i instr) { cc.code = append(cc.code, i) }

// finishBody emits the return sequence after a trailing builtin or cut.
func (cc *clauseComp) finishBody() {
	if cc.haveEnv {
		cc.emit(instr{op: opDeallocate})
	}
	cc.emit(instr{op: opProceed})
}

// constCell encodes an atomic term.
func (cc *clauseComp) constCell(t *term.Term) (Cell, bool) {
	switch t.Kind {
	case term.Int:
		if t.N < -1<<31 || t.N > 1<<31-1 {
			return 0, false
		}
		return Int32(int32(t.N)), true
	case term.Atom:
		if t.Functor == "[]" {
			return NilCell, true
		}
		return Con(cc.p.Syms.Intern(t.Functor)), true
	}
	return 0, false
}

// emitGet compiles head argument i.
func (cc *clauseComp) emitGet(t *term.Term, ai int) error {
	switch t.Kind {
	case term.Var:
		if t.Name == "_" {
			return nil
		}
		vc := cc.vars[t.Name]
		if vc.count == 1 {
			return nil // void
		}
		if !vc.seen {
			vc.seen = true
			if vc.perm {
				cc.emit(instr{op: opGetVariableY, a: int32(vc.index), b: int32(ai)})
			} else {
				cc.emit(instr{op: opGetVariableX, a: int32(vc.index), b: int32(ai)})
			}
			return nil
		}
		if vc.perm {
			cc.emit(instr{op: opGetValueY, a: int32(vc.index), b: int32(ai)})
		} else {
			cc.emit(instr{op: opGetValueX, a: int32(vc.index), b: int32(ai)})
		}
		return nil
	case term.Int, term.Atom:
		c, ok := cc.constCell(t)
		if !ok {
			return fmt.Errorf("dec10: constant out of range: %s", t)
		}
		if c == NilCell {
			cc.emit(instr{op: opGetNil, b: int32(ai)})
		} else {
			cc.emit(instr{op: opGetConstant, b: int32(ai), c: c})
		}
		return nil
	case term.Compound:
		return cc.emitGetStructure(t, regRef{isX: true, idx: ai})
	}
	return fmt.Errorf("dec10: cannot compile head argument %s", t)
}

type regRef struct {
	isX bool
	idx int
}

// flatQ queues a nested compound for breadth-first flattening.
type flatQ struct {
	t *term.Term
	x int
}

// emitGetStructure compiles structure unification against a register,
// flattening nested structures breadth-first.
func (cc *clauseComp) emitGetStructure(t *term.Term, r regRef) error {
	var queue []flatQ
	emitOne := func(t *term.Term, r regRef) error {
		if t.IsCons() {
			cc.emit(instr{op: opGetList, b: int32(r.idx)})
		} else {
			sym := cc.p.Syms.Intern(t.Functor)
			cc.emit(instr{op: opGetStructure, b: int32(r.idx), f: sym<<8 | uint32(len(t.Args))})
		}
		for _, a := range t.Args {
			if err := cc.emitUnifyArg(a, &queue); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emitOne(t, r); err != nil {
		return err
	}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		if err := emitOne(q.t, regRef{isX: true, idx: q.x}); err != nil {
			return err
		}
	}
	return nil
}

// emitUnifyArg emits one unify-stream token.
func (cc *clauseComp) emitUnifyArg(t *term.Term, queue *[]flatQ) error {
	switch t.Kind {
	case term.Var:
		if t.Name == "_" {
			cc.emit(instr{op: opUnifyVoid, a: 1})
			return nil
		}
		vc := cc.vars[t.Name]
		if vc.count == 1 {
			cc.emit(instr{op: opUnifyVoid, a: 1})
			return nil
		}
		if !vc.seen {
			vc.seen = true
			if vc.perm {
				cc.emit(instr{op: opUnifyVariableY, a: int32(vc.index)})
			} else {
				cc.emit(instr{op: opUnifyVariableX, a: int32(vc.index)})
			}
			return nil
		}
		if vc.perm {
			cc.emit(instr{op: opUnifyValueY, a: int32(vc.index)})
		} else {
			cc.emit(instr{op: opUnifyValueX, a: int32(vc.index)})
		}
		return nil
	case term.Int, term.Atom:
		c, ok := cc.constCell(t)
		if !ok {
			return fmt.Errorf("dec10: constant out of range: %s", t)
		}
		if c == NilCell {
			cc.emit(instr{op: opUnifyNil})
		} else {
			cc.emit(instr{op: opUnifyConstant, c: c})
		}
		return nil
	case term.Compound:
		x := cc.nextX
		cc.nextX++
		cc.emit(instr{op: opUnifyVariableX, a: int32(x)})
		*queue = append(*queue, struct {
			t *term.Term
			x int
		}{t, x})
		return nil
	}
	return fmt.Errorf("dec10: cannot compile argument %s", t)
}

// emitPut compiles body-goal argument i into A[i].
func (cc *clauseComp) emitPut(t *term.Term, ai int) error {
	switch t.Kind {
	case term.Var:
		name := t.Name
		if name == "_" {
			x := cc.nextX
			cc.nextX++
			cc.emit(instr{op: opPutVariableX, a: int32(x), b: int32(ai)})
			return nil
		}
		vc := cc.vars[name]
		if vc.count == 1 {
			x := cc.nextX
			cc.nextX++
			cc.emit(instr{op: opPutVariableX, a: int32(x), b: int32(ai)})
			return nil
		}
		if !vc.seen {
			vc.seen = true
			if vc.perm {
				cc.emit(instr{op: opPutVariableY, a: int32(vc.index), b: int32(ai)})
			} else {
				cc.emit(instr{op: opPutVariableX, a: int32(vc.index), b: int32(ai)})
			}
			return nil
		}
		if vc.perm {
			cc.emit(instr{op: opPutValueY, a: int32(vc.index), b: int32(ai)})
		} else {
			cc.emit(instr{op: opPutValueX, a: int32(vc.index), b: int32(ai)})
		}
		return nil
	case term.Int, term.Atom:
		c, ok := cc.constCell(t)
		if !ok {
			return fmt.Errorf("dec10: constant out of range: %s", t)
		}
		if c == NilCell {
			cc.emit(instr{op: opPutNil, b: int32(ai)})
		} else {
			cc.emit(instr{op: opPutConstant, b: int32(ai), c: c})
		}
		return nil
	case term.Compound:
		return cc.emitPutStructure(t, ai)
	}
	return fmt.Errorf("dec10: cannot compile argument %s", t)
}

// emitPutStructure builds a structure bottom-up into A[ai].
func (cc *clauseComp) emitPutStructure(t *term.Term, ai int) error {
	// First build nested compounds into temporaries.
	temps := map[*term.Term]int{}
	var build func(t *term.Term) error
	build = func(t *term.Term) error {
		for _, a := range t.Args {
			if a.Kind == term.Compound {
				if err := build(a); err != nil {
					return err
				}
			}
		}
		x := cc.nextX
		cc.nextX++
		temps[t] = x
		return cc.emitPutOne(t, x, temps)
	}
	for _, a := range t.Args {
		if a.Kind == term.Compound {
			if err := build(a); err != nil {
				return err
			}
		}
	}
	return cc.emitPutOne(t, ai, temps)
}

// emitPutOne writes one structure whose compound arguments are already in
// temporaries.
func (cc *clauseComp) emitPutOne(t *term.Term, target int, temps map[*term.Term]int) error {
	if t.IsCons() {
		cc.emit(instr{op: opPutList, b: int32(target)})
	} else {
		sym := cc.p.Syms.Intern(t.Functor)
		cc.emit(instr{op: opPutStructure, b: int32(target), f: sym<<8 | uint32(len(t.Args))})
	}
	for _, a := range t.Args {
		switch a.Kind {
		case term.Compound:
			cc.emit(instr{op: opUnifyValueX, a: int32(temps[a])})
		case term.Var:
			if a.Name == "_" {
				cc.emit(instr{op: opUnifyVoid, a: 1})
				continue
			}
			vc := cc.vars[a.Name]
			if vc.count == 1 {
				cc.emit(instr{op: opUnifyVoid, a: 1})
				continue
			}
			if !vc.seen {
				vc.seen = true
				if vc.perm {
					cc.emit(instr{op: opUnifyVariableY, a: int32(vc.index)})
				} else {
					cc.emit(instr{op: opUnifyVariableX, a: int32(vc.index)})
				}
				continue
			}
			if vc.perm {
				cc.emit(instr{op: opUnifyValueY, a: int32(vc.index)})
			} else {
				cc.emit(instr{op: opUnifyValueX, a: int32(vc.index)})
			}
		default:
			c, ok := cc.constCell(a)
			if !ok {
				return fmt.Errorf("dec10: constant out of range: %s", a)
			}
			if c == NilCell {
				cc.emit(instr{op: opUnifyNil})
			} else {
				cc.emit(instr{op: opUnifyConstant, c: c})
			}
		}
	}
	return nil
}

// ---- procedure assembly with first-argument indexing -------------------

// compileProc emits all clause blocks plus the indexing entry for one
// predicate.
func (p *Program) compileProc(idx int, clauses []clauseSrc) error {
	proc := p.Procs[idx]
	starts := make([]int32, len(clauses))
	keys := make([]indexKey, len(clauses))
	for i, c := range clauses {
		s, err := p.compileClause(c.head, c.goals)
		if err != nil {
			return err
		}
		starts[i] = int32(s)
		keys[i] = clauseKey(c.head, p.Syms)
	}
	if len(clauses) == 1 {
		proc.Entry = int(starts[0])
		return nil
	}
	// The variable chain tries every clause.
	varChain := p.emitChain(starts, proc.Arity)
	if proc.Arity == 0 {
		proc.Entry = varChain
		return nil
	}

	constBuckets := map[Cell][]int32{}
	structBuckets := map[uint32][]int32{}
	var listBucket []int32
	for i, k := range keys {
		switch k.kind {
		case keyVar:
			for c := range constBucketsAll(keys) {
				constBuckets[c] = append(constBuckets[c], starts[i])
			}
			listBucket = append(listBucket, starts[i])
			for f := range structBucketsAll(keys) {
				structBuckets[f] = append(structBuckets[f], starts[i])
			}
		case keyConst:
			constBuckets[k.c] = append(constBuckets[k.c], starts[i])
		case keyList:
			listBucket = append(listBucket, starts[i])
		case keyStruct:
			structBuckets[k.f] = append(structBuckets[k.f], starts[i])
		}
	}

	failPC := p.emitFail()
	// Clauses whose first argument is a variable match any key: they form
	// the default target when a constant or functor misses the tables.
	var varOnly []int32
	for i, k := range keys {
		if k.kind == keyVar {
			varOnly = append(varOnly, starts[i])
		}
	}
	defaultPC := failPC
	if len(varOnly) > 0 {
		defaultPC = p.emitChain(varOnly, proc.Arity)
	}
	lc := defaultPC
	if len(constBuckets) > 0 {
		tbl := make(map[Cell]int32, len(constBuckets))
		for c, chain := range constBuckets {
			tbl[c] = int32(p.emitChain(chain, proc.Arity))
		}
		lc = len(p.Code)
		p.Code = append(p.Code, instr{op: opSwitchOnConstant, tbl: tbl, a: int32(defaultPC)})
	}
	ll := defaultPC
	if len(listBucket) > 0 {
		ll = p.emitChain(listBucket, proc.Arity)
	}
	ls := defaultPC
	if len(structBuckets) > 0 {
		ftb := make(map[uint32]int32, len(structBuckets))
		for f, chain := range structBuckets {
			ftb[f] = int32(p.emitChain(chain, proc.Arity))
		}
		ls = len(p.Code)
		p.Code = append(p.Code, instr{op: opSwitchOnStructure, ftb: ftb, a: int32(defaultPC)})
	}
	entry := len(p.Code)
	p.Code = append(p.Code, instr{
		op: opSwitchOnTerm,
		lv: int32(varChain), lc: int32(lc), ll: int32(ll), ls: int32(ls),
	})
	proc.Entry = entry
	return nil
}

func constBucketsAll(keys []indexKey) map[Cell]bool {
	m := map[Cell]bool{}
	for _, k := range keys {
		if k.kind == keyConst {
			m[k.c] = true
		}
	}
	return m
}

func structBucketsAll(keys []indexKey) map[uint32]bool {
	m := map[uint32]bool{}
	for _, k := range keys {
		if k.kind == keyStruct {
			m[k.f] = true
		}
	}
	return m
}

// emitChain emits a try/retry/trust chain (or a direct jump when the
// bucket holds a single clause, removing the choice point entirely).
// arity is the number of argument registers a choice point must save.
func (p *Program) emitChain(targets []int32, arity int) int {
	if len(targets) == 1 {
		return int(targets[0])
	}
	start := len(p.Code)
	for i, t := range targets {
		switch {
		case i == 0:
			p.Code = append(p.Code, instr{op: opTry, a: t, b: int32(arity)})
		case i == len(targets)-1:
			p.Code = append(p.Code, instr{op: opTrust, a: t})
		default:
			p.Code = append(p.Code, instr{op: opRetry, a: t})
		}
	}
	return start
}

func (p *Program) emitFail() int {
	pc := len(p.Code)
	p.Code = append(p.Code, instr{op: opFail})
	return pc
}

// indexKey classifies a clause's first head argument.
type keyKind uint8

const (
	keyVar keyKind = iota
	keyConst
	keyList
	keyStruct
)

type indexKey struct {
	kind keyKind
	c    Cell
	f    uint32
}

func clauseKey(head *term.Term, syms *term.Symbols) indexKey {
	if head.Arity() == 0 {
		return indexKey{kind: keyVar}
	}
	a := head.Args[0]
	switch a.Kind {
	case term.Var:
		return indexKey{kind: keyVar}
	case term.Int:
		return indexKey{kind: keyConst, c: Int32(int32(a.N))}
	case term.Atom:
		if a.Functor == "[]" {
			return indexKey{kind: keyConst, c: NilCell}
		}
		return indexKey{kind: keyConst, c: Con(syms.Intern(a.Functor))}
	case term.Compound:
		if a.IsCons() {
			return indexKey{kind: keyList}
		}
		return indexKey{kind: keyStruct, f: syms.Intern(a.Functor)<<8 | uint32(len(a.Args))}
	}
	return indexKey{kind: keyVar}
}

// CompileQuery compiles a goal into a fresh $query predicate whose
// arguments are the goal's variables; running it with fresh unbound
// argument registers yields the bindings.
func (p *Program) CompileQuery(goal *term.Term) (procIdx int, vars []string, err error) {
	p.queryN++
	name := fmt.Sprintf("$query%d", p.queryN)
	vars = goal.Vars()
	head := auxHead(name, vars)
	if err := p.AddClauses([]*term.Term{term.NewCompound(":-", head, goal)}); err != nil {
		return 0, nil, err
	}
	idx, _ := p.LookupProc(name, len(vars))
	return idx, vars, nil
}

// Query is a top-level goal compiled once: the entry point of its $query
// predicate plus the halt stub terminating the run. It can be executed on
// any machine loaded with this program (or a Snapshot of it).
type Query struct {
	Entry  int
	Vars   []string
	HaltPC int
}

// CompileQueryHandle compiles a goal and its halt stub into the program
// once and returns a reusable handle, so repeated runs skip compilation
// entirely (Machine.SolveTerm compiles a fresh pseudo-predicate per
// call).
func (p *Program) CompileQueryHandle(goal *term.Term) (*Query, error) {
	idx, vars, err := p.CompileQuery(goal)
	if err != nil {
		return nil, err
	}
	haltPC := len(p.Code)
	p.Code = append(p.Code, instr{op: opHaltSuccess})
	return &Query{Entry: p.Procs[idx].Entry, Vars: vars, HaltPC: haltPC}, nil
}

// Snapshot returns a program that shares this program's compiled code
// image read-only but grows privately: the code and procedure slices are
// capped at their current length, so appends (the machine's lazy metacall
// stubs, further query compiles) reallocate instead of scribbling on the
// shared image. Concurrent machines each run on their own Snapshot of one
// compiled baseline program.
func (p *Program) Snapshot() *Program {
	procIndex := make(map[uint64]int, len(p.procIndex))
	for k, v := range p.procIndex {
		procIndex[k] = v
	}
	return &Program{
		Syms:      p.Syms,
		Code:      p.Code[:len(p.Code):len(p.Code)],
		Procs:     p.Procs[:len(p.Procs):len(p.Procs)],
		procIndex: procIndex,
		MaxReg:    p.MaxReg,
		auxCount:  p.auxCount,
		queryN:    p.queryN,
	}
}
