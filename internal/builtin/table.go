// Package builtin is the single source of truth for the built-in
// predicates both simulated engines implement: the identifier table
// (name, arity, determinism class, type signature) and the shared,
// machine-neutral semantics — arithmetic, the standard order of terms,
// and the functor/arg/univ structure operations — expressed over a small
// value interface each machine adapts to its own representation and cost
// accounting.
//
// The package is a leaf: internal/kl0, internal/core and internal/dec10
// all consume it, so the two engines cannot drift apart again.
package builtin

import "fmt"

// ID identifies a built-in predicate. The PSI executes built-ins
// entirely in microcode; Table 2's "built" column is the time spent in
// their bodies and "get_arg" the time fetching their arguments.
type ID uint16

// Built-in predicates.
const (
	BTrue ID = iota
	BFail
	BUnify    // =/2
	BNotUnify // \=/2
	BEqEq     // ==/2
	BNotEqEq  // \==/2
	BVar
	BNonvar
	BAtom
	BInteger
	BAtomic
	BIs
	BArithEq // =:=
	BArithNe // =\=
	BLess    // </2
	BLessEq  // =</2
	BGreater // >/2
	BGreaterEq
	BFunctor
	BArg
	BUniv // =../2
	BCall
	BWrite
	BNl
	BTab
	BHalt
	BVector    // vector(V, N): create heap vector of N cells
	BVset      // vset(V, I, X)
	BVref      // vref(V, I, X)
	BInterrupt // interrupt: run the installed handler on its process
	BCompare   // compare(Order, X, Y) over the standard order of terms
	BTermLess  // @</2
	BTermLeq   // @=</2
	BTermGtr   // @>/2
	BTermGeq   // @>=/2
	BFindall   // findall(Template, Goal, List)
	BName      // name(AtomOrInt, Codes)
	BAssertz   // assertz(Clause)
	BRetract   // retract(Fact) — facts only
	NumBuiltins
)

// MaxArity bounds term and clause arity across both engines (shared with
// the KL0 compiler's variable-frame limits).
const MaxArity = 255

// Det classifies a built-in's determinism.
type Det uint8

const (
	// Detm: succeeds exactly once or throws (side effects, constructors).
	Detm Det = iota
	// SemiDet: succeeds at most once — type tests, comparisons, unify.
	SemiDet
	// NonDet: may succeed multiple times on backtracking (call/1 through
	// the metacall choice point).
	NonDet
)

// String names the determinism class.
func (d Det) String() string {
	switch d {
	case Detm:
		return "det"
	case SemiDet:
		return "semidet"
	default:
		return "nondet"
	}
}

// Spec describes one built-in: its canonical name/arity, determinism
// class and mode signature (+ input, - output, ? either).
type Spec struct {
	ID    ID
	Name  string
	Arity int
	Det   Det
	Sig   string
}

// Indicator renders the canonical predicate indicator (name/arity).
func (s Spec) Indicator() string { return fmt.Sprintf("%s/%d", s.Name, s.Arity) }

// specs is the canonical table, indexed by ID.
var specs = [NumBuiltins]Spec{
	BTrue:      {BTrue, "true", 0, Detm, ""},
	BFail:      {BFail, "fail", 0, SemiDet, ""},
	BUnify:     {BUnify, "=", 2, SemiDet, "?term, ?term"},
	BNotUnify:  {BNotUnify, `\=`, 2, SemiDet, "?term, ?term"},
	BEqEq:      {BEqEq, "==", 2, SemiDet, "?term, ?term"},
	BNotEqEq:   {BNotEqEq, `\==`, 2, SemiDet, "?term, ?term"},
	BVar:       {BVar, "var", 1, SemiDet, "?term"},
	BNonvar:    {BNonvar, "nonvar", 1, SemiDet, "?term"},
	BAtom:      {BAtom, "atom", 1, SemiDet, "?term"},
	BInteger:   {BInteger, "integer", 1, SemiDet, "?term"},
	BAtomic:    {BAtomic, "atomic", 1, SemiDet, "?term"},
	BIs:        {BIs, "is", 2, Detm, "-int, +expr"},
	BArithEq:   {BArithEq, "=:=", 2, SemiDet, "+expr, +expr"},
	BArithNe:   {BArithNe, `=\=`, 2, SemiDet, "+expr, +expr"},
	BLess:      {BLess, "<", 2, SemiDet, "+expr, +expr"},
	BLessEq:    {BLessEq, "=<", 2, SemiDet, "+expr, +expr"},
	BGreater:   {BGreater, ">", 2, SemiDet, "+expr, +expr"},
	BGreaterEq: {BGreaterEq, ">=", 2, SemiDet, "+expr, +expr"},
	BFunctor:   {BFunctor, "functor", 3, SemiDet, "?term, ?atomic, ?int"},
	BArg:       {BArg, "arg", 3, SemiDet, "+int, +compound, ?term"},
	BUniv:      {BUniv, "=..", 2, SemiDet, "?term, ?list"},
	BCall:      {BCall, "call", 1, NonDet, "+callable"},
	BWrite:     {BWrite, "write", 1, Detm, "?term"},
	BNl:        {BNl, "nl", 0, Detm, ""},
	BTab:       {BTab, "tab", 1, Detm, "+expr"},
	BHalt:      {BHalt, "halt", 0, Detm, ""},
	BVector:    {BVector, "vector", 2, Detm, "-vec, +int"},
	BVset:      {BVset, "vset", 3, Detm, "+vec, +int, +atomic"},
	BVref:      {BVref, "vref", 3, Detm, "+vec, +int, ?atomic"},
	BInterrupt: {BInterrupt, "interrupt", 0, Detm, ""},
	BCompare:   {BCompare, "compare", 3, SemiDet, "?atom, ?term, ?term"},
	BTermLess:  {BTermLess, "@<", 2, SemiDet, "?term, ?term"},
	BTermLeq:   {BTermLeq, "@=<", 2, SemiDet, "?term, ?term"},
	BTermGtr:   {BTermGtr, "@>", 2, SemiDet, "?term, ?term"},
	BTermGeq:   {BTermGeq, "@>=", 2, SemiDet, "?term, ?term"},
	BFindall:   {BFindall, "findall", 3, Detm, "?term, +callable, ?list"},
	BName:      {BName, "name", 2, SemiDet, "?atomic, ?codes"},
	BAssertz:   {BAssertz, "assertz", 1, Detm, "+clause"},
	BRetract:   {BRetract, "retract", 1, SemiDet, "+fact"},
}

// indicator is a name/arity key.
type indicator struct {
	name  string
	arity int
}

// aliases lists accepted alternate names for some built-ins.
var aliases = map[indicator]ID{
	{"false", 0}:  BFail,
	{"assert", 1}: BAssertz,
}

// byIndicator maps name/arity to IDs, canonical names plus aliases.
// Keying by the pair lets Lookup probe without formatting a string.
var byIndicator = func() map[indicator]ID {
	m := make(map[indicator]ID, len(specs)+len(aliases))
	for _, s := range specs {
		m[indicator{s.Name, s.Arity}] = s.ID
	}
	for k, v := range aliases {
		m[k] = v
	}
	return m
}()

// SpecOf returns the canonical table entry for an ID.
func SpecOf(b ID) (Spec, bool) {
	if int(b) < len(specs) {
		return specs[b], true
	}
	return Spec{}, false
}

// Specs returns a copy of the full canonical table (indexed by ID).
func Specs() []Spec {
	out := make([]Spec, len(specs))
	copy(out, specs[:])
	return out
}

// Lookup resolves a predicate indicator to a built-in ID.
func Lookup(name string, arity int) (ID, bool) {
	id, ok := byIndicator[indicator{name, arity}]
	return id, ok
}

// String names the builtin as name/arity.
func (b ID) String() string {
	if s, ok := SpecOf(b); ok && s.Name != "" {
		return s.Indicator()
	}
	return fmt.Sprintf("builtin(%d)", uint16(b))
}
