package kl0

import "repro/internal/builtin"

// Builtin identifies a firmware built-in predicate. The canonical table
// — names, arities, determinism classes — lives in internal/builtin and
// is shared with the DEC-10 baseline; KL0 re-exports the identifiers so
// compiler and core code keep reading naturally.
type Builtin = builtin.ID

// Built-in predicates.
const (
	BTrue       = builtin.BTrue
	BFail       = builtin.BFail
	BUnify      = builtin.BUnify
	BNotUnify   = builtin.BNotUnify
	BEqEq       = builtin.BEqEq
	BNotEqEq    = builtin.BNotEqEq
	BVar        = builtin.BVar
	BNonvar     = builtin.BNonvar
	BAtom       = builtin.BAtom
	BInteger    = builtin.BInteger
	BAtomic     = builtin.BAtomic
	BIs         = builtin.BIs
	BArithEq    = builtin.BArithEq
	BArithNe    = builtin.BArithNe
	BLess       = builtin.BLess
	BLessEq     = builtin.BLessEq
	BGreater    = builtin.BGreater
	BGreaterEq  = builtin.BGreaterEq
	BFunctor    = builtin.BFunctor
	BArg        = builtin.BArg
	BUniv       = builtin.BUniv
	BCall       = builtin.BCall
	BWrite      = builtin.BWrite
	BNl         = builtin.BNl
	BTab        = builtin.BTab
	BHalt       = builtin.BHalt
	BVector     = builtin.BVector
	BVset       = builtin.BVset
	BVref       = builtin.BVref
	BInterrupt  = builtin.BInterrupt
	BCompare    = builtin.BCompare
	BTermLess   = builtin.BTermLess
	BTermLeq    = builtin.BTermLeq
	BTermGtr    = builtin.BTermGtr
	BTermGeq    = builtin.BTermGeq
	BFindall    = builtin.BFindall
	BName       = builtin.BName
	BAssertz    = builtin.BAssertz
	BRetract    = builtin.BRetract
	NumBuiltins = builtin.NumBuiltins
)

// LookupBuiltin resolves a predicate indicator to a built-in id.
func LookupBuiltin(name string, arity int) (Builtin, bool) {
	return builtin.Lookup(name, arity)
}
