// Package parse implements a DEC-10-style operator-precedence Prolog
// reader over the lexer, producing source terms for the KL0 compiler and
// the DEC-10 baseline compiler.
package parse

import (
	"fmt"

	"repro/internal/lex"
	"repro/internal/term"
)

// opType is the operator fixity class.
type opType uint8

const (
	xfx opType = iota
	xfy
	yfx
	fy
	fx
	xf
	yf
)

type opDef struct {
	prec int
	typ  opType
}

// The standard DEC-10 Prolog operator table (the subset the PSI
// benchmarks use).
var infixOps = map[string]opDef{
	":-":   {1200, xfx},
	"-->":  {1200, xfx},
	";":    {1100, xfy},
	"->":   {1050, xfy},
	",":    {1000, xfy},
	"=":    {700, xfx},
	"\\=":  {700, xfx},
	"==":   {700, xfx},
	"\\==": {700, xfx},
	"@<":   {700, xfx},
	"@>":   {700, xfx},
	"@=<":  {700, xfx},
	"@>=":  {700, xfx},
	"is":   {700, xfx},
	"=:=":  {700, xfx},
	"=\\=": {700, xfx},
	"<":    {700, xfx},
	">":    {700, xfx},
	"=<":   {700, xfx},
	">=":   {700, xfx},
	"=..":  {700, xfx},
	"+":    {500, yfx},
	"-":    {500, yfx},
	"/\\":  {500, yfx},
	"\\/":  {500, yfx},
	"*":    {400, yfx},
	"/":    {400, yfx},
	"//":   {400, yfx},
	"mod":  {400, yfx},
	"<<":   {400, yfx},
	">>":   {400, yfx},
	"^":    {200, xfy},
}

var prefixOps = map[string]opDef{
	":-":  {1200, fx},
	"?-":  {1200, fx},
	"\\+": {900, fy},
	"-":   {200, fy},
	"+":   {200, fy},
	"\\":  {200, fy},
}

// Parser reads a sequence of clauses from source text.
//
// The terms it returns come from slabs the parser owns: nodes holds
// term.Term values and vecs argument vectors, each handed out from
// chunks that grow with the parse. Terms of one parse therefore share
// memory, and since clauses straddle chunks, holding any one of them
// can keep the whole parse alive. Arguments and list elements collect
// on stack, which is reused for every term the parser reads.
type Parser struct {
	lx    *lex.Lexer
	tok   lex.Token
	err   error
	path  string
	nodes slab[term.Term]
	vecs  slab[*term.Term]
	stack []*term.Term
}

// New returns a parser over src. path is used in error messages.
func New(path, src string) *Parser {
	p := &Parser{lx: lex.New(src), path: path}
	p.next()
	return p
}

// Slab chunks start at minChunk values, so a one-term parse stays
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

// node returns a slab copy of t.
func (p *Parser) node(t term.Term) *term.Term {
	n := &p.nodes.take(1)[0]
	*n = t
	return n
}

func (p *Parser) atom(name string) *term.Term {
	return p.node(term.Term{Kind: term.Atom, Functor: name})
}

func (p *Parser) integer(v int64) *term.Term {
	return p.node(term.Term{Kind: term.Int, N: v})
}

// apply returns the compound functor(args...) with a slab copy of args.
func (p *Parser) apply(functor string, args ...*term.Term) *term.Term {
	vec := p.vecs.take(len(args))
	copy(vec, args)
	return p.node(term.Term{Kind: term.Compound, Functor: functor, Args: vec})
}

// pop truncates the stack to base, the depth before the caller pushed.
func (p *Parser) pop(base int) { p.stack = p.stack[:base] }

// list builds the list of the elements stacked above base, ending in
// tail, and pops them.
func (p *Parser) list(base int, tail *term.Term) *term.Term {
	for i := len(p.stack) - 1; i >= base; i-- {
		tail = p.apply(".", p.stack[i], tail)
	}
	p.pop(base)
	return tail
}

// top reads one term of precedence at most 1200. A parse that fails
// midway abandons the frames that pushed onto the stack; top drops what
// they pushed.
func (p *Parser) top() (*term.Term, error) {
	t, err := p.parse(1200)
	p.pop(0)
	return t, err
}

// Error is a syntax error with position information.
type Error struct {
	Path string
	Line int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.Path, e.Line, e.Msg)
}

func (p *Parser) errf(format string, args ...interface{}) error {
	return &Error{Path: p.path, Line: p.tok.Line, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) next() {
	if p.err != nil {
		return
	}
	t, err := p.lx.Next()
	if err != nil {
		p.err = &Error{Path: p.path, Line: p.tok.Line, Msg: err.Error()}
		return
	}
	p.tok = t
}

// ReadClause reads the next clause (a term terminated by '.'). It returns
// nil, nil at end of input.
func (p *Parser) ReadClause() (*term.Term, error) {
	if p.err != nil {
		return nil, p.err
	}
	if p.tok.Kind == lex.EOF {
		return nil, nil
	}
	t, err := p.top()
	if err != nil {
		return nil, err
	}
	if p.err != nil {
		return nil, p.err
	}
	if p.tok.Kind != lex.EndTok {
		return nil, p.errf("expected '.' after clause, found %q", p.tok.String())
	}
	p.next()
	if p.err != nil {
		return nil, p.err
	}
	return t, nil
}

// ReadAll reads all clauses in the source.
func (p *Parser) ReadAll() ([]*term.Term, error) {
	var cs []*term.Term
	for {
		c, err := p.ReadClause()
		if err != nil {
			return nil, err
		}
		if c == nil {
			return cs, nil
		}
		cs = append(cs, c)
	}
}

// Term parses a single term from src (no trailing '.').
func Term(src string) (*term.Term, error) {
	p := New("<term>", src)
	t, err := p.top()
	if err != nil {
		return nil, err
	}
	if p.err != nil {
		return nil, p.err
	}
	if p.tok.Kind != lex.EOF && p.tok.Kind != lex.EndTok {
		return nil, p.errf("trailing input %q", p.tok.String())
	}
	return t, nil
}

// Clauses parses a whole program text.
func Clauses(path, src string) ([]*term.Term, error) {
	return New(path, src).ReadAll()
}

// MustClauses parses a program text and panics on error; for embedding
// known-good benchmark sources.
func MustClauses(path, src string) []*term.Term {
	cs, err := Clauses(path, src)
	if err != nil {
		panic(err)
	}
	return cs
}

// parse reads a term whose principal operator has precedence <= maxPrec.
func (p *Parser) parse(maxPrec int) (*term.Term, error) {
	left, leftPrec, err := p.parsePrimary(maxPrec)
	if err != nil {
		return nil, err
	}
	return p.parseInfix(left, leftPrec, maxPrec)
}

func (p *Parser) parseInfix(left *term.Term, leftPrec, maxPrec int) (*term.Term, error) {
	for {
		if p.err != nil {
			return nil, p.err
		}
		var name string
		switch {
		case p.tok.Kind == lex.AtomTok:
			name = p.tok.Text
		case p.tok.Kind == lex.PunctTok && p.tok.Text == ",":
			name = ","
		default:
			return left, nil
		}
		op, ok := infixOps[name]
		if !ok || op.prec > maxPrec {
			return left, nil
		}
		var maxLeft, maxRight int
		switch op.typ {
		case xfx:
			maxLeft, maxRight = op.prec-1, op.prec-1
		case xfy:
			maxLeft, maxRight = op.prec-1, op.prec
		case yfx:
			maxLeft, maxRight = op.prec, op.prec-1
		}
		if leftPrec > maxLeft {
			return left, nil
		}
		p.next()
		right, err := p.parse(maxRight)
		if err != nil {
			return nil, err
		}
		left = p.apply(name, left, right)
		leftPrec = op.prec
	}
}

// termStart reports whether the current token could begin a term.
func (p *Parser) termStart() bool {
	switch p.tok.Kind {
	case lex.AtomTok, lex.VarTok, lex.IntTok, lex.StrTok, lex.FunctTok:
		return true
	case lex.PunctTok:
		return p.tok.Text == "(" || p.tok.Text == "[" || p.tok.Text == "{"
	}
	return false
}

func (p *Parser) parsePrimary(maxPrec int) (*term.Term, int, error) {
	if p.err != nil {
		return nil, 0, p.err
	}
	tok := p.tok
	switch tok.Kind {
	case lex.IntTok:
		p.next()
		return p.integer(tok.Int), 0, nil

	case lex.VarTok:
		p.next()
		return p.node(term.Term{Kind: term.Var, Name: tok.Text}), 0, nil

	case lex.StrTok:
		p.next()
		base := len(p.stack)
		for _, r := range tok.Text {
			p.stack = append(p.stack, p.integer(int64(r)))
		}
		return p.list(base, p.atom("[]")), 0, nil

	case lex.FunctTok:
		p.next() // functor; current token is '('
		if p.tok.Kind != lex.PunctTok || p.tok.Text != "(" {
			return nil, 0, p.errf("internal: functor token not followed by '('")
		}
		p.next()
		base := len(p.stack)
		for {
			a, err := p.parse(999)
			if err != nil {
				return nil, 0, err
			}
			p.stack = append(p.stack, a)
			if p.tok.Kind == lex.PunctTok && p.tok.Text == "," {
				p.next()
				continue
			}
			break
		}
		if p.tok.Kind != lex.PunctTok || p.tok.Text != ")" {
			return nil, 0, p.errf("expected ')' in arguments of %s, found %q", tok.Text, p.tok.String())
		}
		p.next()
		t := p.apply(tok.Text, p.stack[base:]...)
		p.pop(base)
		return t, 0, nil

	case lex.AtomTok:
		name := tok.Text
		p.next()
		// Prefix operator?
		if op, ok := prefixOps[name]; ok && op.prec <= maxPrec && p.termStart() {
			// '-' or '+' immediately before an integer folds into a literal.
			if (name == "-" || name == "+") && p.tok.Kind == lex.IntTok {
				v := p.tok.Int
				p.next()
				if name == "-" {
					v = -v
				}
				return p.integer(v), 0, nil
			}
			argMax := op.prec
			if op.typ == fx {
				argMax = op.prec - 1
			}
			arg, err := p.parse(argMax)
			if err != nil {
				return nil, 0, err
			}
			return p.apply(name, arg), op.prec, nil
		}
		// Plain atom. An atom that is also an operator keeps its
		// precedence so that (a :- b) :- c parses correctly.
		if op, ok := infixOps[name]; ok {
			return p.atom(name), op.prec, nil
		}
		return p.atom(name), 0, nil

	case lex.PunctTok:
		switch tok.Text {
		case "(":
			p.next()
			t, err := p.parse(1200)
			if err != nil {
				return nil, 0, err
			}
			if p.tok.Kind != lex.PunctTok || p.tok.Text != ")" {
				return nil, 0, p.errf("expected ')', found %q", p.tok.String())
			}
			p.next()
			return t, 0, nil
		case "[":
			p.next()
			return p.parseList()
		case "{":
			p.next()
			if p.tok.Kind == lex.PunctTok && p.tok.Text == "}" {
				p.next()
				return p.atom("{}"), 0, nil
			}
			t, err := p.parse(1200)
			if err != nil {
				return nil, 0, err
			}
			if p.tok.Kind != lex.PunctTok || p.tok.Text != "}" {
				return nil, 0, p.errf("expected '}', found %q", p.tok.String())
			}
			p.next()
			return p.apply("{}", t), 0, nil
		}
	}
	return nil, 0, p.errf("unexpected token %q", tok.String())
}

func (p *Parser) parseList() (*term.Term, int, error) {
	if p.tok.Kind == lex.PunctTok && p.tok.Text == "]" {
		p.next()
		return p.atom("[]"), 0, nil
	}
	base := len(p.stack)
	for {
		e, err := p.parse(999)
		if err != nil {
			return nil, 0, err
		}
		p.stack = append(p.stack, e)
		if p.tok.Kind == lex.PunctTok && p.tok.Text == "," {
			p.next()
			continue
		}
		break
	}
	var tail *term.Term
	if p.tok.Kind == lex.PunctTok && p.tok.Text == "|" {
		p.next()
		t, err := p.parse(999)
		if err != nil {
			return nil, 0, err
		}
		tail = t
	}
	if p.tok.Kind != lex.PunctTok || p.tok.Text != "]" {
		return nil, 0, p.errf("expected ']', found %q", p.tok.String())
	}
	p.next()
	if tail == nil {
		tail = p.atom("[]")
	}
	return p.list(base, tail), 0, nil
}
