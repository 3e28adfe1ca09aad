// Package term provides the source-level Prolog term representations.
// Arena is the flat, pointer-free one the reader builds and the KL0
// compiler compiles from. Term is the tree the DEC-10 baseline engine,
// dynamic clauses and answer reporting use; variables are identified by
// name. Arena.Terms and Arena.AddTerm convert between the two.
package term

import (
	"fmt"
	"strings"
)

// Kind discriminates term variants.
type Kind uint8

// Term kinds.
const (
	Var Kind = iota
	Atom
	Int
	Compound
)

// Term is a source-level Prolog term.
//
// Kind Var:      Name holds the variable name ("_" for anonymous).
// Kind Atom:     Functor holds the atom name.
// Kind Int:      N holds the value.
// Kind Compound: Functor and Args; lists use functor "." with two args and
// the empty list is the atom "[]".
type Term struct {
	Kind    Kind
	Functor string
	N       int64
	Args    []*Term
	Name    string
}

// NewVar returns a variable term.
func NewVar(name string) *Term { return &Term{Kind: Var, Name: name} }

// NewAtom returns an atom term.
func NewAtom(name string) *Term { return &Term{Kind: Atom, Functor: name} }

// NewInt returns an integer term.
func NewInt(v int64) *Term { return &Term{Kind: Int, N: v} }

// NewCompound returns a compound term. With no arguments it degenerates to
// an atom.
func NewCompound(functor string, args ...*Term) *Term {
	if len(args) == 0 {
		return NewAtom(functor)
	}
	return &Term{Kind: Compound, Functor: functor, Args: args}
}

// EmptyList is the atom [].
func EmptyList() *Term { return NewAtom("[]") }

// Cons builds the list cell '.'(head, tail).
func Cons(head, tail *Term) *Term { return NewCompound(".", head, tail) }

// FromList builds a proper list term from elements.
func FromList(elems ...*Term) *Term {
	t := EmptyList()
	for i := len(elems) - 1; i >= 0; i-- {
		t = Cons(elems[i], t)
	}
	return t
}

// IntList builds a proper list of integers.
func IntList(vs ...int64) *Term {
	elems := make([]*Term, len(vs))
	for i, v := range vs {
		elems[i] = NewInt(v)
	}
	return FromList(elems...)
}

// IsEmptyList reports whether t is the atom [].
func (t *Term) IsEmptyList() bool { return t.Kind == Atom && t.Functor == "[]" }

// IsCons reports whether t is a './2' list cell.
func (t *Term) IsCons() bool {
	return t.Kind == Compound && t.Functor == "." && len(t.Args) == 2
}

// Arity reports the number of arguments (0 for non-compound terms).
func (t *Term) Arity() int {
	if t.Kind == Compound {
		return len(t.Args)
	}
	return 0
}

// Indicator returns the predicate indicator "name/arity" for atoms and
// compound terms and a diagnostic form otherwise.
func (t *Term) Indicator() string {
	switch t.Kind {
	case Atom:
		return t.Functor + "/0"
	case Compound:
		return fmt.Sprintf("%s/%d", t.Functor, len(t.Args))
	default:
		return fmt.Sprintf("<%s>", t.String())
	}
}

// ListElems flattens a proper list into its elements. ok is false when the
// term is not a proper list.
func (t *Term) ListElems() (elems []*Term, ok bool) {
	for t.IsCons() {
		elems = append(elems, t.Args[0])
		t = t.Args[1]
	}
	if !t.IsEmptyList() {
		return nil, false
	}
	return elems, true
}

// Equal reports structural equality; variables compare by name.
func (t *Term) Equal(o *Term) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil || t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case Var:
		return t.Name == o.Name
	case Atom:
		return t.Functor == o.Functor
	case Int:
		return t.N == o.N
	case Compound:
		if t.Functor != o.Functor || len(t.Args) != len(o.Args) {
			return false
		}
		for i := range t.Args {
			if !t.Args[i].Equal(o.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Vars returns the distinct variable names in order of first occurrence,
// excluding the anonymous variable.
func (t *Term) Vars() []string {
	var names []string
	seen := map[string]bool{}
	var walk func(*Term)
	walk = func(t *Term) {
		switch t.Kind {
		case Var:
			if t.Name != "_" && !seen[t.Name] {
				seen[t.Name] = true
				names = append(names, t.Name)
			}
		case Compound:
			for _, a := range t.Args {
				walk(a)
			}
		}
	}
	walk(t)
	return names
}

// Rename returns a copy of t with every variable renamed through subst;
// variables absent from subst are kept.
func (t *Term) Rename(subst map[string]string) *Term {
	switch t.Kind {
	case Var:
		if n, ok := subst[t.Name]; ok {
			return NewVar(n)
		}
		return t
	case Compound:
		args := make([]*Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = a.Rename(subst)
		}
		return &Term{Kind: Compound, Functor: t.Functor, Args: args}
	default:
		return t
	}
}

// String writes the term in standard Prolog notation (lists bracketed,
// operators not reconstructed, atoms quoted when necessary).
func (t *Term) String() string {
	var b strings.Builder
	t.write(&b)
	return b.String()
}

func (t *Term) write(b *strings.Builder) {
	switch t.Kind {
	case Var:
		b.WriteString(t.Name)
	case Int:
		fmt.Fprintf(b, "%d", t.N)
	case Atom:
		b.WriteString(QuoteAtom(t.Functor))
	case Compound:
		if t.IsCons() {
			t.writeList(b)
			return
		}
		if len(t.Args) == 2 && infixFunctors[t.Functor] {
			t.writeOperand(b, t.Args[0])
			b.WriteString(t.Functor)
			t.writeOperand(b, t.Args[1])
			return
		}
		b.WriteString(QuoteAtom(t.Functor))
		b.WriteByte('(')
		for i, a := range t.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			a.write(b)
		}
		b.WriteByte(')')
	}
}

// infixFunctors are printed in operator notation, as DEC-10 Prolog's
// write/1 does. Operands that are themselves operator terms are
// parenthesized, so the output always reads back unambiguously.
var infixFunctors = map[string]bool{
	"-": true, "+": true, "*": true, "/": true, "//": true, "mod": true,
	"=": true, "<": true, ">": true, ">=": true, "=<": true,
	":-": true, "->": true, ";": true,
}

func (t *Term) writeOperand(b *strings.Builder, a *Term) {
	if a.Kind == Compound && !a.IsCons() && infixFunctors[a.Functor] && len(a.Args) == 2 {
		b.WriteByte('(')
		a.write(b)
		b.WriteByte(')')
		return
	}
	a.write(b)
}

func (t *Term) writeList(b *strings.Builder) {
	b.WriteByte('[')
	first := true
	for t.IsCons() {
		if !first {
			b.WriteByte(',')
		}
		first = false
		t.Args[0].write(b)
		t = t.Args[1]
	}
	if !t.IsEmptyList() {
		b.WriteByte('|')
		t.write(b)
	}
	b.WriteByte(']')
}

// QuoteAtom renders an atom name with quotes if it is not a plain
// unquoted atom.
func QuoteAtom(name string) string {
	if name == "[]" || name == "{}" || name == "!" || name == ";" {
		return name
	}
	if isAlphaAtom(name) || isSymbolAtom(name) {
		return name
	}
	var b strings.Builder
	b.WriteByte('\'')
	for _, r := range name {
		switch r {
		case '\'':
			b.WriteString("\\'")
		case '\\':
			b.WriteString("\\\\")
		case '\n':
			b.WriteString("\\n")
		case '\t':
			b.WriteString("\\t")
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('\'')
	return b.String()
}

func isAlphaAtom(s string) bool {
	if s == "" {
		return false
	}
	c := s[0]
	if c < 'a' || c > 'z' {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_') {
			return false
		}
	}
	return true
}

const symbolChars = "+-*/\\^<>=~:.?@#&$"

func isSymbolAtom(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !strings.ContainsRune(symbolChars, rune(s[i])) {
			return false
		}
	}
	return true
}
