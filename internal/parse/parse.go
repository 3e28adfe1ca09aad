// Package parse implements a DEC-10-style operator-precedence Prolog
// reader over the lexer. It reads into a flat term arena (term.Arena),
// which the KL0 compiler compiles directly; Clauses and Term convert the
// arena to source terms for the DEC-10 baseline compiler and other
// consumers of term.Term.
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

var commaOp = infixOps[","]

var prefixOps = map[string]opDef{
	":-":  {1200, fx},
	"?-":  {1200, fx},
	"\\+": {900, fy},
	"-":   {200, fy},
	"+":   {200, fy},
	"\\":  {200, fy},
}

// Parser reads a sequence of clauses from source text into a term
// arena. Arguments and list elements collect on the arena's stack, and
// each clause numbers its own variables.
type Parser struct {
	lx   lex.Lexer
	tok  lex.Token
	err  error
	path string
	a    *term.Arena
}

// New returns a parser over src that reads into a fresh arena. path is
// used in error messages.
func New(path, src string) *Parser {
	p := &Parser{}
	p.init(term.NewArena(), path, src)
	return p
}

// init readies a parser over src. Read and ReadGoal keep their parser
// on the stack, so the token it holds costs no write barrier.
func (p *Parser) init(a *term.Arena, path, src string) {
	*p = Parser{lx: *lex.New(src), path: path, a: a}
	p.next()
}

func (p *Parser) atom(name string) term.Ref { return p.a.Atom(p.a.Intern(name)) }

// top reads one term of precedence at most 1200 as a clause of its own.
// A parse that fails midway abandons the frames that pushed onto the
// stack; top drops what they pushed and the clause's variables.
func (p *Parser) top() (term.Clause, error) {
	base := p.a.Depth()
	p.a.OpenClause()
	t, err := p.parse(1200)
	p.a.Pop(base)
	if err != nil {
		return term.Clause{}, err
	}
	return p.a.EndClause(t), nil
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
	if err := p.lx.Scan(&p.tok); err != nil {
		p.err = &Error{Path: p.path, Line: p.tok.Line, Msg: err.Error()}
	}
}

// ReadClause reads the next clause (a term terminated by '.'). It returns
// nil, nil at end of input.
func (p *Parser) ReadClause() (*term.Term, error) {
	c, ok, err := p.read()
	if !ok {
		return nil, err
	}
	return p.a.Term(c), nil
}

// read reads the next clause into the arena; ok is false at end of input
// and on error.
func (p *Parser) read() (term.Clause, bool, error) {
	if p.err != nil {
		return term.Clause{}, false, p.err
	}
	if p.tok.Kind == lex.EOF {
		return term.Clause{}, false, nil
	}
	c, err := p.top()
	if err != nil {
		return c, false, err
	}
	if p.err != nil {
		return c, false, p.err
	}
	if p.tok.Kind != lex.EndTok {
		return c, false, p.errf("expected '.' after clause, found %q", p.tok.String())
	}
	p.next()
	if p.err != nil {
		return c, false, p.err
	}
	return c, true, nil
}

// Read parses a whole program text into a, returning its clauses. The
// slice aliases the arena's clause list.
func Read(a *term.Arena, path, src string) ([]term.Clause, error) {
	first := len(a.Clauses())
	var p Parser
	p.init(a, path, src)
	for {
		_, ok, err := p.read()
		if err != nil {
			return nil, err
		}
		if !ok {
			return a.Clauses()[first:], nil
		}
	}
}

// ReadGoal parses a single term from src (no trailing '.') into a.
func ReadGoal(a *term.Arena, src string) (term.Clause, error) {
	var p Parser
	p.init(a, "<term>", src)
	c, err := p.top()
	if err != nil {
		return c, err
	}
	if p.err != nil {
		return c, p.err
	}
	if p.tok.Kind != lex.EOF && p.tok.Kind != lex.EndTok {
		return c, p.errf("trailing input %q", p.tok.String())
	}
	return c, nil
}

// Term parses a single term from src (no trailing '.').
func Term(src string) (*term.Term, error) {
	a := term.GetArena()
	defer a.Release()
	c, err := ReadGoal(a, src)
	if err != nil {
		return nil, err
	}
	return a.Term(c), nil
}

// Clauses parses a whole program text. The terms share slab memory: see
// term.Arena.Terms.
func Clauses(path, src string) ([]*term.Term, error) {
	a := term.GetArena()
	defer a.Release()
	cs, err := Read(a, path, src)
	if err != nil {
		return nil, err
	}
	return a.Terms(cs), nil
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
func (p *Parser) parse(maxPrec int) (term.Ref, error) {
	left, leftPrec, err := p.parsePrimary(maxPrec)
	if err != nil {
		return term.NoRef, err
	}
	return p.parseInfix(left, leftPrec, maxPrec)
}

func (p *Parser) parseInfix(left term.Ref, leftPrec, maxPrec int) (term.Ref, error) {
	for {
		if p.err != nil {
			return term.NoRef, p.err
		}
		var name string
		var op opDef
		switch {
		case p.tok.Kind == lex.AtomTok:
			name = p.tok.Text
			var ok bool
			if op, ok = infixOps[name]; !ok {
				return left, nil
			}
		case p.tok.Kind == lex.PunctTok && p.tok.Text == ",":
			// The commonest case, between arguments, needs no lookup.
			name, op = ",", commaOp
		default:
			return left, nil
		}
		if op.prec > maxPrec {
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
			return term.NoRef, err
		}
		left = p.a.Compound(p.a.Intern(name), left, right)
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

func (p *Parser) parsePrimary(maxPrec int) (term.Ref, int, error) {
	if p.err != nil {
		return term.NoRef, 0, p.err
	}
	tok := p.tok
	switch tok.Kind {
	case lex.IntTok:
		p.next()
		return p.a.Int(tok.Int), 0, nil

	case lex.VarTok:
		p.next()
		return p.a.Var(tok.Text), 0, nil

	case lex.StrTok:
		p.next()
		base := p.a.Depth()
		for _, r := range tok.Text {
			p.a.Push(p.a.Int(int64(r)))
		}
		return p.a.List(base, p.a.Atom(term.IDNil)), 0, nil

	case lex.FunctTok:
		p.next() // functor; current token is '('
		if p.tok.Kind != lex.PunctTok || p.tok.Text != "(" {
			return term.NoRef, 0, p.errf("internal: functor token not followed by '('")
		}
		p.next()
		base := p.a.Depth()
		for {
			a, err := p.parse(999)
			if err != nil {
				return term.NoRef, 0, err
			}
			p.a.Push(a)
			if p.tok.Kind == lex.PunctTok && p.tok.Text == "," {
				p.next()
				continue
			}
			break
		}
		if p.tok.Kind != lex.PunctTok || p.tok.Text != ")" {
			return term.NoRef, 0, p.errf("expected ')' in arguments of %s, found %q", tok.Text, p.tok.String())
		}
		p.next()
		return p.a.Apply(p.a.Intern(tok.Text), base), 0, nil

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
				return p.a.Int(v), 0, nil
			}
			argMax := op.prec
			if op.typ == fx {
				argMax = op.prec - 1
			}
			arg, err := p.parse(argMax)
			if err != nil {
				return term.NoRef, 0, err
			}
			return p.a.Compound(p.a.Intern(name), arg), op.prec, nil
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
				return term.NoRef, 0, err
			}
			if p.tok.Kind != lex.PunctTok || p.tok.Text != ")" {
				return term.NoRef, 0, p.errf("expected ')', found %q", p.tok.String())
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
				return p.a.Atom(term.IDCurly), 0, nil
			}
			t, err := p.parse(1200)
			if err != nil {
				return term.NoRef, 0, err
			}
			if p.tok.Kind != lex.PunctTok || p.tok.Text != "}" {
				return term.NoRef, 0, p.errf("expected '}', found %q", p.tok.String())
			}
			p.next()
			return p.a.Compound(term.IDCurly, t), 0, nil
		}
	}
	return term.NoRef, 0, p.errf("unexpected token %q", tok.String())
}

func (p *Parser) parseList() (term.Ref, int, error) {
	if p.tok.Kind == lex.PunctTok && p.tok.Text == "]" {
		p.next()
		return p.a.Atom(term.IDNil), 0, nil
	}
	base := p.a.Depth()
	for {
		e, err := p.parse(999)
		if err != nil {
			return term.NoRef, 0, err
		}
		p.a.Push(e)
		if p.tok.Kind == lex.PunctTok && p.tok.Text == "," {
			p.next()
			continue
		}
		break
	}
	tail := term.NoRef
	if p.tok.Kind == lex.PunctTok && p.tok.Text == "|" {
		p.next()
		t, err := p.parse(999)
		if err != nil {
			return term.NoRef, 0, err
		}
		tail = t
	}
	if p.tok.Kind != lex.PunctTok || p.tok.Text != "]" {
		return term.NoRef, 0, p.errf("expected ']', found %q", p.tok.String())
	}
	p.next()
	if tail == term.NoRef {
		tail = p.a.Atom(term.IDNil)
	}
	return p.a.List(base, tail), 0, nil
}
