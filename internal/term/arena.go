package term

import "sync"

// Ref is a handle to one term of an Arena.
type Ref int32

// NoRef is the Ref of no term.
const NoRef Ref = -1

// Anon is the variable number of the anonymous variable '_': each of its
// occurrences is a distinct variable.
const Anon = -1

// node is one term of an Arena. It holds no Go pointer, so the garbage
// collector never scans an arena's nodes.
//
// Var:      id is the variable's number in its clause, or Anon.
// Atom:     id is the symbol.
// Int:      val is the value.
// Compound: id is the symbol; val packs the index of the first argument
// in the arena's argument vector (high half) and the arity (low half).
type node struct {
	kind Kind
	id   int32
	val  int64
}

// Clause is one term read as a clause or a goal: its root and the index
// of its first variable name. Variable k of the clause is named
// Arena.VarName(c, k); a term built later from the clause's parts shares
// its variables by naming the same Clause.Vars.
type Clause struct {
	Root Ref
	Vars int32
}

// Arena is a flat, pointer-free store of source terms. Terms are nodes
// referenced by Ref; a compound's arguments are a run of Refs in one
// shared vector. Atoms and functors are arena-local symbol IDs, interned
// once per distinct name (the compiler maps each to a program symbol on
// first use), and variables are numbered per clause. An arena is reused
// from a pool: Release resets it and keeps its memory.
//
// Every arena interns the symbols IDNil through IDFail at fixed IDs, so
// readers and compilers test clause structure by integer compare.
type Arena struct {
	nodes   []node
	args    []Ref
	names   []string         // symbol names by ID
	syms    map[string]int32 // symbol IDs by name
	vars    []string         // variable names of every clause, by Clause.Vars
	clauses []Clause
	stack   []Ref // arguments and list elements being collected
	ncomp   int   // compounds added

	// The open clause: its variables start at vars[open]; byName indexes
	// them once the clause has more than linearVars.
	open   int32
	byName map[string]int32
}

// Symbol IDs every arena interns at the same place.
const (
	IDNil   int32 = iota // []
	IDDot                // .
	IDNeck               // :-
	IDComma              // ,
	IDCut                // !
	IDSemi               // ;
	IDArrow              // ->
	IDNot                // \+
	IDCurly              // {}
	IDFail               // fail
)

var fixedNames = [...]string{"[]", ".", ":-", ",", "!", ";", "->", "\\+", "{}", "fail"}

// linearVars is the number of variables up to which a clause's variables
// are found by scanning its names.
const linearVars = 32

var arenas = sync.Pool{New: func() any { return NewArena() }}

// NewArena returns an empty arena of its own, outside the pool.
func NewArena() *Arena {
	a := &Arena{syms: make(map[string]int32)}
	a.Reset()
	return a
}

// GetArena returns an empty arena from the pool.
func GetArena() *Arena { return arenas.Get().(*Arena) }

// Release resets the arena and returns it to the pool. Neither it nor
// any Ref or Clause into it may be used afterwards.
func (a *Arena) Release() {
	a.Reset()
	arenas.Put(a)
}

// Reset empties the arena, keeping its memory. It drops every name, so
// a pooled arena keeps no source text alive.
func (a *Arena) Reset() {
	a.nodes = a.nodes[:0]
	a.args = a.args[:0]
	clear(a.names)
	a.names = a.names[:0]
	clear(a.syms)
	clear(a.vars)
	a.vars = a.vars[:0]
	a.clauses = a.clauses[:0]
	a.stack = a.stack[:0]
	a.ncomp = 0
	a.open = 0
	a.byName = nil
	for _, n := range fixedNames {
		a.Intern(n)
	}
}

// Intern returns the arena-local ID of a symbol name, adding it if new.
func (a *Arena) Intern(name string) int32 {
	if id, ok := a.syms[name]; ok {
		return id
	}
	id := int32(len(a.names))
	a.names = append(a.names, name)
	a.syms[name] = id
	return id
}

// Name returns the name of an arena-local symbol.
func (a *Arena) Name(id int32) string { return a.names[id] }

// NumSyms reports how many symbols the arena has interned.
func (a *Arena) NumSyms() int { return len(a.names) }

// Size reports how many compounds the arena holds and how many
// arguments they have in all.
func (a *Arena) Size() (compounds, args int) { return a.ncomp, len(a.args) }

func (a *Arena) add(n node) Ref {
	a.nodes = append(a.nodes, n)
	return Ref(len(a.nodes) - 1)
}

// Atom adds the atom with symbol id.
func (a *Arena) Atom(id int32) Ref { return a.add(node{kind: Atom, id: id}) }

// Int adds an integer.
func (a *Arena) Int(v int64) Ref { return a.add(node{kind: Int, val: v}) }

// Compound adds the compound id(args...), copying args.
func (a *Arena) Compound(id int32, args ...Ref) Ref {
	first := len(a.args)
	a.args = append(a.args, args...)
	a.ncomp++
	return a.add(node{kind: Compound, id: id, val: int64(first)<<32 | int64(len(args))})
}

// Push stacks r as the next argument or list element of a term being
// collected.
func (a *Arena) Push(r Ref) { a.stack = append(a.stack, r) }

// Depth reports how many Refs are stacked.
func (a *Arena) Depth() int { return len(a.stack) }

// Pop drops the Refs stacked above base.
func (a *Arena) Pop(base int) { a.stack = a.stack[:base] }

// Apply adds the compound id(args...) of the Refs stacked above base and
// pops them.
func (a *Arena) Apply(id int32, base int) Ref {
	r := a.Compound(id, a.stack[base:]...)
	a.Pop(base)
	return r
}

// List adds the list of the Refs stacked above base, ending in tail, and
// pops them.
func (a *Arena) List(base int, tail Ref) Ref {
	for i := len(a.stack) - 1; i >= base; i-- {
		tail = a.Compound(IDDot, a.stack[i], tail)
	}
	a.Pop(base)
	return tail
}

// Var adds an occurrence of the named variable of the open clause,
// numbering the clause's variables in order of first occurrence.
func (a *Arena) Var(name string) Ref {
	if name == "_" {
		return a.add(node{kind: Var, id: Anon})
	}
	return a.add(node{kind: Var, id: a.varNumber(name)})
}

func (a *Arena) varNumber(name string) int32 {
	open := a.vars[a.open:]
	if a.byName != nil {
		if k, ok := a.byName[name]; ok {
			return k
		}
	} else {
		for k, n := range open {
			if n == name {
				return int32(k)
			}
		}
	}
	k := int32(len(open))
	a.vars = append(a.vars, name)
	switch {
	case a.byName != nil:
		a.byName[name] = k
	case k >= linearVars:
		a.byName = make(map[string]int32, 2*len(open))
		for i, n := range a.vars[a.open:] {
			a.byName[n] = int32(i)
		}
	}
	return k
}

// OpenClause starts a clause: later Var calls number its variables. A
// clause opened and never ended is dropped with its variables.
func (a *Arena) OpenClause() {
	clear(a.vars[a.open:])
	a.vars = a.vars[:a.open]
	a.byName = nil
}

// EndClause closes the open clause with root as its term, appending it
// to Clauses.
func (a *Arena) EndClause(root Ref) Clause {
	c := Clause{Root: root, Vars: a.open}
	a.clauses = append(a.clauses, c)
	a.open = int32(len(a.vars))
	a.byName = nil
	return c
}

// Clauses returns the clauses ended so far, in order.
func (a *Arena) Clauses() []Clause { return a.clauses }

// VarName returns the name of variable k of clause c.
func (a *Arena) VarName(c Clause, k int32) string {
	if k == Anon {
		return "_"
	}
	return a.vars[c.Vars+k]
}

// Kind returns the kind of term r.
func (a *Arena) Kind(r Ref) Kind { return a.nodes[r].kind }

// Sym returns the symbol of atom or compound r.
func (a *Arena) Sym(r Ref) int32 { return a.nodes[r].id }

// VarNum returns the number of variable r in its clause, or Anon.
func (a *Arena) VarNum(r Ref) int32 { return a.nodes[r].id }

// IntVal returns the value of integer r.
func (a *Arena) IntVal(r Ref) int64 { return a.nodes[r].val }

// Arity returns the number of arguments of r (0 unless compound).
func (a *Arena) Arity(r Ref) int {
	n := &a.nodes[r]
	if n.kind != Compound {
		return 0
	}
	return int(uint32(n.val))
}

// Args returns the arguments of r (nil unless compound). The slice
// aliases the arena: it stays valid as the arena grows, but not past
// Release.
func (a *Arena) Args(r Ref) []Ref {
	n := &a.nodes[r]
	if n.kind != Compound {
		return nil
	}
	first, arity := int(n.val>>32), int(uint32(n.val))
	return a.args[first : first+arity : first+arity]
}

// Is reports whether r is the compound or atom id with the given arity.
func (a *Arena) Is(r Ref, id int32, arity int) bool {
	n := &a.nodes[r]
	if n.id != id {
		return false
	}
	switch n.kind {
	case Atom:
		return arity == 0
	case Compound:
		return int(uint32(n.val)) == arity
	}
	return false
}

// AddTerm copies t into the arena as one clause.
func (a *Arena) AddTerm(t *Term) Clause {
	a.OpenClause()
	return a.EndClause(a.addTerm(t))
}

func (a *Arena) addTerm(t *Term) Ref {
	switch t.Kind {
	case Var:
		return a.Var(t.Name)
	case Atom:
		return a.Atom(a.Intern(t.Functor))
	case Int:
		return a.Int(t.N)
	}
	base := a.Depth()
	for _, x := range t.Args {
		a.Push(a.addTerm(x))
	}
	return a.Apply(a.Intern(t.Functor), base)
}

// Terms converts clauses of the arena to source terms. The terms of one
// call share slab memory: holding any one of them holds them all.
func (a *Arena) Terms(cs []Clause) []*Term {
	cv := converter{a: a}
	out := make([]*Term, len(cs))
	for i, c := range cs {
		cv.vars = c.Vars
		out[i] = cv.term(c.Root)
	}
	return out
}

// Term converts one clause of the arena to a source term.
func (a *Arena) Term(c Clause) *Term { return a.Terms([]Clause{c})[0] }

// Text writes clause c as Term(c).String() does.
func (a *Arena) Text(c Clause) string { return a.Term(c).String() }

type converter struct {
	a     *Arena
	vars  int32
	nodes slab[Term]
	vecs  slab[*Term]
}

func (cv *converter) term(r Ref) *Term {
	a := cv.a
	n := a.nodes[r]
	t := &cv.nodes.take(1)[0]
	t.Kind = n.kind
	switch n.kind {
	case Var:
		t.Name = a.VarName(Clause{Vars: cv.vars}, n.id)
	case Atom:
		t.Functor = a.names[n.id]
	case Int:
		t.N = n.val
	case Compound:
		t.Functor = a.names[n.id]
		args := a.Args(r)
		t.Args = cv.vecs.take(len(args))
		for i, x := range args {
			t.Args[i] = cv.term(x)
		}
	}
	return t
}

// Slab chunks start at minChunk values, so a one-term conversion stays
// small, and double up to maxChunk, so a large program costs a few
// allocations per thousand terms.
const (
	minChunk = 8
	maxChunk = 1024
)

// slab hands out values from chunks that are filled front to back and
// never reused: the values escape to the caller.
type slab[T any] struct {
	free []T // the unused tail of the current chunk
	size int // length of the current chunk
}

// take returns n fresh values whose slice cannot grow into its
// neighbours.
func (s *slab[T]) take(n int) []T {
	if n > len(s.free) {
		s.size = min(max(2*s.size, minChunk), maxChunk)
		s.free = make([]T, max(s.size, n))
	}
	v := s.free[:n:n]
	s.free = s.free[n:]
	return v
}
