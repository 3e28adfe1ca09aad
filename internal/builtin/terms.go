package builtin

import (
	"errors"
	"fmt"
)

// Shared structure and ordering semantics: ==/2, the standard order of
// terms (compare/3, @</2 ...), functor/3, arg/3 and =../2 are walks over
// runtime terms whose logic used to be duplicated — and slowly diverging
// — in both engines. The walks live here once, expressed over the Terms
// interface; each engine supplies an adapter that maps the hooks onto
// its own value representation and charges exactly the cycles or cost
// units its hand-written implementation used to charge. The hook call
// order is therefore part of the contract: on the PSI the cache model
// makes memory-access order observable in the published numbers.

// Kind classifies a dereferenced runtime value.
type Kind uint8

const (
	KVar Kind = iota
	KInt
	KAtom
	KNil  // '[]', kept distinct because both machines tag it separately
	KVec  // PSI heap vectors (absent on the DEC-10 baseline)
	KComp // compound term
)

// Op tells an adapter which builtin a hook serves, so it can charge the
// exact per-operation cycle metadata its machine's firmware uses (the
// PSI's compare and ==/2 walks issue different branch/work-file modes
// for the same logical read).
type Op uint8

const (
	OpCompare Op = iota
	OpIdentical
	OpFunctor
	OpArg
	OpUniv
)

// Terms is the small value interface the shared semantics run over.
// V is the machine's dereferenced value type (core's val, dec10's Cell).
// All values handed to the walks must already be dereferenced; Deref is
// the machine's (possibly free) re-resolution hook for values that may
// still be references.
type Terms[V comparable] interface {
	// Kind classifies a value (no charge).
	Kind(v V) Kind
	// Int returns an integer value's 32-bit payload.
	Int(v V) int32
	// AtomName renders an atomic value's name for ordering ("[]" for
	// nil; machine-specific pseudo-names for non-standard constants).
	AtomName(v V) string
	// AtomSym returns the interned symbol of an atom (or the machine's
	// '[]' symbol for nil), for term construction.
	AtomSym(v V) uint32
	// FunctorName resolves an interned symbol to its name (no charge).
	FunctorName(sym uint32) string

	// VarCompare orders two unbound variables by cell address.
	VarCompare(x, y V) int
	// SameVar reports whether two unbound values are the same variable.
	SameVar(x, y V) bool
	// ConstEqual reports payload equality of two same-kind constants.
	ConstEqual(x, y V) bool
	// SameCompound reports the identical-structure shortcut (same
	// molecule / same heap cell) without reading the functor.
	SameCompound(x, y V) bool

	// Functor reads a compound's functor cell, charging the op-specific
	// fetch, and returns its interned symbol and arity.
	Functor(t V, op Op) (sym uint32, arity int)
	// Arg1 reads and resolves compound t's i-th argument (1-based).
	Arg1(t V, i int, op Op) V
	// ArgPair reads the i-th argument of both compounds — both fetches
	// first, then both resolutions, the PSI firmware's access order.
	ArgPair(x, y V, i int, op Op) (V, V)

	// Deref re-resolves a value that may still be a reference.
	Deref(v V) V
	// Unify performs full unification (charging the machine's cost).
	Unify(x, y V) bool
	// UnifyVoid unifies t against an anonymous fresh variable: always
	// true, binding nothing (functor/3 construction with unbound name
	// and arity 0 — both machines now share the PSI's semantics).
	UnifyVoid(t V) bool
	// TypeMiss charges the type-dispatch failure path of arg/3.
	TypeMiss()
	// VisitNode charges one node visit of the compare/identical walks.
	VisitNode(op Op)

	// MkAtomSym builds an atom value from an interned symbol.
	MkAtomSym(sym uint32) V
	// MkInt builds an integer value.
	MkInt(n int) V
	// MkCompound builds a compound with the given functor symbol and
	// arity; args supplies the argument values, or nil for fresh
	// variables (functor/3 construction).
	MkCompound(sym uint32, n int, args []V) V
	// MkList builds a proper list of the given elements.
	MkList(elems []V) V
	// ListElems flattens a proper list into its element values; false if
	// the value is not a proper list.
	ListElems(l V) ([]V, bool)
}

// orderRank buckets a kind for the standard order of terms:
// variables < integers < atoms < compound terms.
func orderRank(k Kind) int {
	switch k {
	case KVar:
		return 0
	case KInt:
		return 1
	case KAtom, KNil, KVec:
		return 2
	default:
		return 3
	}
}

func sign(d int) int {
	switch {
	case d < 0:
		return -1
	case d > 0:
		return 1
	}
	return 0
}

// Compare orders two dereferenced values by the standard order of
// terms: variables by cell address, integers by value, atoms
// alphabetically, compounds by arity, then functor name, then arguments
// left to right. Returns -1, 0 or 1.
func Compare[V comparable, M Terms[V]](m M, x, y V) int {
	m.VisitNode(OpCompare)
	kx, ky := m.Kind(x), m.Kind(y)
	if d := orderRank(kx) - orderRank(ky); d != 0 {
		return sign(d)
	}
	switch orderRank(kx) {
	case 0:
		return m.VarCompare(x, y)
	case 1:
		return sign(int(m.Int(x)) - int(m.Int(y)))
	case 2:
		xn, yn := m.AtomName(x), m.AtomName(y)
		switch {
		case xn == yn:
			return 0
		case xn < yn:
			return -1
		default:
			return 1
		}
	default:
		fx, ax := m.Functor(x, OpCompare)
		fy, ay := m.Functor(y, OpCompare)
		if d := ax - ay; d != 0 {
			return sign(d)
		}
		xn, yn := m.FunctorName(fx), m.FunctorName(fy)
		if xn != yn {
			if xn < yn {
				return -1
			}
			return 1
		}
		for i := 1; i <= ax; i++ {
			px, py := m.ArgPair(x, y, i, OpCompare)
			if c := Compare[V, M](m, px, py); c != 0 {
				return c
			}
		}
		return 0
	}
}

// OrderName maps a comparison result to the compare/3 atom name.
func OrderName(c int) string {
	switch {
	case c < 0:
		return "<"
	case c > 0:
		return ">"
	}
	return "="
}

// Identical implements ==/2: structural identity without binding.
func Identical[V comparable, M Terms[V]](m M, x, y V) bool {
	m.VisitNode(OpIdentical)
	kx, ky := m.Kind(x), m.Kind(y)
	if kx == KVar || ky == KVar {
		return kx == KVar && ky == KVar && m.SameVar(x, y)
	}
	if kx != ky {
		return false
	}
	switch kx {
	case KNil:
		return true
	case KComp:
		if m.SameCompound(x, y) {
			return true
		}
		fx, ax := m.Functor(x, OpIdentical)
		fy, ay := m.Functor(y, OpIdentical)
		if fx != fy || ax != ay {
			return false
		}
		for i := 1; i <= ax; i++ {
			px, py := m.ArgPair(x, y, i, OpIdentical)
			if !Identical[V, M](m, px, py) {
				return false
			}
		}
		return true
	default: // int, atom, vec
		return m.ConstEqual(x, y)
	}
}

// CheckType implements the var/nonvar/atom/integer/atomic type tests
// over a classified kind.
func CheckType(b ID, k Kind) bool {
	switch b {
	case BVar:
		return k == KVar
	case BNonvar:
		return k != KVar
	case BAtom:
		return k == KAtom || k == KNil
	case BInteger:
		return k == KInt
	default: // atomic
		return k == KInt || k == KAtom || k == KNil || k == KVec
	}
}

// Structure-builtin errors (all ErrMalformed-class when surfaced).
var (
	ErrFunctorArityType = errors.New("functor/3: arity must be an integer")
	ErrFunctorNameType  = errors.New("functor/3: name must be an atom")
	ErrUnivList         = errors.New("=../2: second argument must be a proper non-empty list")
	ErrUnivFunctor      = errors.New("=../2: functor must be an atom")
	ErrUnivArity        = errors.New("=../2: arity too large")
)

// ErrFunctorArityRange builds the out-of-range arity error.
func ErrFunctorArityRange(n int) error {
	return fmt.Errorf("functor/3: arity %d out of range", n)
}

// Functor3 implements functor/3 in both directions over already
// dereferenced t, name and arity values.
func Functor3[V comparable, M Terms[V]](m M, t, name, arity V) (bool, error) {
	if m.Kind(t) != KVar {
		// Decompose.
		if m.Kind(t) == KComp {
			sym, ar := m.Functor(t, OpFunctor)
			return m.Unify(name, m.MkAtomSym(sym)) && m.Unify(arity, m.MkInt(ar)), nil
		}
		return m.Unify(name, t) && m.Unify(arity, m.MkInt(0)), nil
	}
	// Construct.
	nm := m.Deref(name)
	nv := m.Deref(arity)
	if m.Kind(nv) != KInt {
		return false, ErrFunctorArityType
	}
	n := int(m.Int(nv))
	if n < 0 || n > MaxArity {
		return false, ErrFunctorArityRange(n)
	}
	if n == 0 {
		if m.Kind(nm) == KVar {
			return m.UnifyVoid(t), nil
		}
		return m.Unify(t, nm), nil
	}
	if k := m.Kind(nm); k != KAtom && k != KNil {
		return false, ErrFunctorNameType
	}
	return m.Unify(t, m.MkCompound(m.AtomSym(nm), n, nil)), nil
}

// Arg3 implements arg/3 over already dereferenced n, t and a.
func Arg3[V comparable, M Terms[V]](m M, n, t, a V) bool {
	if m.Kind(n) != KInt || m.Kind(t) != KComp {
		m.TypeMiss()
		return false
	}
	_, ar := m.Functor(t, OpArg)
	i := int(m.Int(n))
	if i < 1 || i > ar {
		return false
	}
	return m.Unify(m.Arg1(t, i, OpArg), a)
}

// Univ2 implements =../2 in both directions over already dereferenced t
// and list l.
func Univ2[V comparable, M Terms[V]](m M, t, l V) (bool, error) {
	if m.Kind(t) != KVar {
		// Decompose: T =.. [Name|Args].
		var elems []V
		if m.Kind(t) == KComp {
			sym, ar := m.Functor(t, OpUniv)
			elems = append(elems, m.MkAtomSym(sym))
			for i := 1; i <= ar; i++ {
				elems = append(elems, m.Arg1(t, i, OpUniv))
			}
		} else {
			elems = []V{t}
		}
		return m.Unify(l, m.MkList(elems)), nil
	}
	// Construct: T =.. [Name|Args].
	elems, ok := m.ListElems(l)
	if !ok || len(elems) == 0 {
		return false, ErrUnivList
	}
	if len(elems) == 1 {
		return m.Unify(t, elems[0]), nil
	}
	head := m.Deref(elems[0])
	if k := m.Kind(head); k != KAtom && k != KNil {
		return false, ErrUnivFunctor
	}
	rest := elems[1:]
	if len(rest) > MaxArity {
		return false, ErrUnivArity
	}
	return m.Unify(t, m.MkCompound(m.AtomSym(head), len(rest), rest)), nil
}
