package parse

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/term"
)

func mustTerm(t *testing.T, src string) *term.Term {
	t.Helper()
	tm, err := Term(src)
	if err != nil {
		t.Fatalf("Term(%q): %v", src, err)
	}
	return tm
}

func TestAtomsAndConstants(t *testing.T) {
	cases := map[string]string{
		"foo":       "foo",
		"'Foo bar'": "'Foo bar'",
		"42":        "42",
		"-42":       "-42",
		"X":         "X",
		"[]":        "[]",
		"\"ab\"":    "[97,98]",
		"0'a":       "97",
	}
	for src, want := range cases {
		if got := mustTerm(t, src).String(); got != want {
			t.Errorf("Term(%q) = %s, want %s", src, got, want)
		}
	}
}

func TestCompounds(t *testing.T) {
	cases := map[string]string{
		"f(a,b)":           "f(a,b)",
		"f(g(X),[1,2|T])":  "f(g(X),[1,2|T])",
		"'my pred'(1)":     "'my pred'(1)",
		"-(1,2)":           "1-2",
		".(a,[])":          "[a]",
		"{a}":              "{}(a)",
		"{}":               "{}",
		"f([a,b],[c|[d]])": "f([a,b],[c,d])",
		"append([],L,L)":   "append([],L,L)",
	}
	for src, want := range cases {
		if got := mustTerm(t, src).String(); got != want {
			t.Errorf("Term(%q) = %s, want %s", src, got, want)
		}
	}
}

func TestOperatorPrecedence(t *testing.T) {
	cases := map[string]string{
		"1+2*3":         "+(1,*(2,3))",
		"1*2+3":         "+(*(1,2),3)",
		"1-2-3":         "-(-(1,2),3)",
		"a,b,c":         "','(a,','(b,c))",
		"a;b,c":         ";(a,','(b,c))",
		"(a;b),c":       "','(;(a,b),c)",
		"X is Y+1":      "is(X,+(Y,1))",
		"a :- b, c":     ":-(a,','(b,c))",
		"\\+ a":         "\\+(a)",
		"\\+ a, b":      "','(\\+(a),b)",
		"X = Y":         "=(X,Y)",
		"a -> b ; c":    ";(->(a,b),c)",
		"X mod 2 =:= 0": "=:=(mod(X,2),0)",
		"- (3)":         "-(3)",
		"1 - 2":         "-(1,2)",
		"f(a-b, c)":     "f(-(a,b),c)",
		"[a,b|c]":       "[a,b|c]",
		"X^2":           "^(X,2)",
		"3 * -1":        "*(3,-1)",
	}
	for src, want := range cases {
		got := mustTerm(t, src)
		canon := canonical(got)
		if canon != want {
			t.Errorf("Term(%q) = %s, want %s", src, canon, want)
		}
	}
}

// canonical prints in pure functional notation to check structure.
func canonical(t *term.Term) string {
	switch t.Kind {
	case term.Compound:
		if t.IsCons() {
			// keep list sugar for readability of expected values
			return t.String()
		}
		var b strings.Builder
		b.WriteString(term.QuoteAtom(t.Functor))
		b.WriteByte('(')
		for i, a := range t.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(canonical(a))
		}
		b.WriteByte(')')
		return b.String()
	default:
		return t.String()
	}
}

func TestClauses(t *testing.T) {
	src := `
% naive reverse
nrev([],[]).
nrev([H|T],R) :- nrev(T,RT), append(RT,[H],R).
append([],L,L).
append([H|T],L,[H|R]) :- append(T,L,R).
`
	cs, err := Clauses("test", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 4 {
		t.Fatalf("got %d clauses", len(cs))
	}
	if cs[1].Functor != ":-" {
		t.Errorf("clause 1 = %v", cs[1])
	}
}

func TestErrors(t *testing.T) {
	bad := []string{
		"f(a",
		"f(a,)",
		"[a,b",
		"a b",
		"f(a)) ",
		", a",
		"{a",
		"a :- .",
	}
	for _, src := range bad {
		if _, err := Term(src); err == nil {
			t.Errorf("Term(%q) should fail", src)
		}
	}
	if _, err := Clauses("t", "a"); err == nil {
		t.Error("clause without terminator should fail")
	}
	if _, err := Clauses("t", "f(a,'x) ."); err == nil {
		t.Error("lex error should propagate")
	}
}

func TestReadClauseEOF(t *testing.T) {
	p := New("t", "a. b.")
	c1, err := p.ReadClause()
	if err != nil || c1.Functor != "a" {
		t.Fatalf("c1: %v %v", c1, err)
	}
	c2, err := p.ReadClause()
	if err != nil || c2.Functor != "b" {
		t.Fatalf("c2: %v %v", c2, err)
	}
	c3, err := p.ReadClause()
	if err != nil || c3 != nil {
		t.Fatalf("c3 should be nil at EOF: %v %v", c3, err)
	}
}

func TestMustClausesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustClauses should panic on bad input")
		}
	}()
	MustClauses("t", "f(")
}

// genTerm builds a random printable term for the round-trip property.
func genTerm(r *rand.Rand, depth int) *term.Term {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return term.NewInt(int64(r.Intn(2000) - 1000))
		case 1:
			return term.NewAtom([]string{"a", "foo", "bar_1", "'odd atom'", "[]"}[r.Intn(5)])
		case 2:
			return term.NewVar([]string{"X", "Y", "Zed", "_1"}[r.Intn(4)])
		default:
			return term.EmptyList()
		}
	}
	switch r.Intn(3) {
	case 0:
		n := 1 + r.Intn(3)
		args := make([]*term.Term, n)
		for i := range args {
			args[i] = genTerm(r, depth-1)
		}
		return term.NewCompound([]string{"f", "g", "point"}[r.Intn(3)], args...)
	case 1:
		n := r.Intn(3)
		elems := make([]*term.Term, n)
		for i := range elems {
			elems[i] = genTerm(r, depth-1)
		}
		return term.FromList(elems...)
	default:
		return genTerm(r, 0)
	}
}

func TestParsePrintRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		orig := genTerm(r, 4)
		printed := orig.String()
		// Atoms quoted with leading quote parse back to the unquoted name.
		back, err := Term(printed)
		if err != nil {
			t.Fatalf("round-trip parse of %q failed: %v", printed, err)
		}
		if !stripQuotes(orig).Equal(stripQuotes(back)) {
			t.Fatalf("round trip %q -> %q", printed, back.String())
		}
	}
}

// stripQuotes normalizes atom names that were written quoted.
func stripQuotes(t *term.Term) *term.Term {
	norm := func(s string) string {
		if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
			return s[1 : len(s)-1]
		}
		return s
	}
	switch t.Kind {
	case term.Atom:
		return term.NewAtom(norm(t.Functor))
	case term.Compound:
		args := make([]*term.Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = stripQuotes(a)
		}
		return &term.Term{Kind: term.Compound, Functor: norm(t.Functor), Args: args}
	default:
		return t
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(a int32, b int32) bool {
		src := term.NewCompound("pair", term.NewInt(int64(a)), term.NewInt(int64(b)))
		back, err := Term(src.String())
		return err == nil && back.Equal(src)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestErrorMessages pins the text and line of every syntax error the
// reader reports: one case per parser error path and per lexer error.
// (The parser's "functor token not followed by '('" check is
// unreachable: the lexer emits a functor token only before '('.) A
// lexer error is reported at the line of the last good token, which is
// 0 when the very first token fails.
func TestErrorMessages(t *testing.T) {
	cases := []struct {
		src  string
		term bool // read with Term rather than Clauses
		line int
		msg  string
	}{
		// Parser errors.
		{src: "a :- b c.", line: 1, msg: `t:1: expected '.' after clause, found "c"`},
		{src: "a", line: 1, msg: `t:1: expected '.' after clause, found "<eof>"`},
		{src: "a b", term: true, line: 1, msg: `<term>:1: trailing input "b"`},
		{src: "f(a)) ", term: true, line: 1, msg: `<term>:1: trailing input ")"`},
		{src: "f(a b).", line: 1, msg: `t:1: expected ')' in arguments of f, found "b"`},
		{src: "f(a\n.", line: 2, msg: `t:2: expected ')' in arguments of f, found "."`},
		{src: "x :- (a, b.", line: 1, msg: `t:1: expected ')', found "."`},
		{src: "x :- {a, b.", line: 1, msg: `t:1: expected '}', found "."`},
		{src: "{a", term: true, line: 1, msg: `<term>:1: expected '}', found "<eof>"`},
		{src: "x :- ).", line: 1, msg: `t:1: unexpected token ")"`},
		{src: "f(a,).", line: 1, msg: `t:1: unexpected token ")"`},
		{src: ", a", term: true, line: 1, msg: `<term>:1: unexpected token ","`},
		{src: "", term: true, line: 1, msg: `<term>:1: unexpected token "<eof>"`},
		{src: "p([a, b c]).", line: 1, msg: `t:1: expected ']', found "c"`},
		{src: "p :- X = [1, 2 | T W].", line: 1, msg: `t:1: expected ']', found "W"`},
		{src: "[a, b", line: 1, msg: `t:1: expected ']', found "<eof>"`},
		// Errors after good clauses, and nested inside argument lists
		// and lists: the reader unwinds several open frames.
		{src: "a.\nb(1).\nc([x, y]).\nd(e(f, g h)).", line: 4, msg: `t:4: expected ')' in arguments of e, found "h"`},
		{src: "a.\np([1, f(2, [3, 4 5])]).", line: 2, msg: `t:2: expected ']', found "5"`},
		{src: "a.\n\nq(f(x, [y | Z], g(w v))).", line: 3, msg: `t:3: expected ')' in arguments of g, found "v"`},
		// Lexer errors.
		{src: "/* open", line: 0, msg: "t:0: line 1: unterminated block comment"},
		{src: "a.\nb :- c.\n/* open\n", line: 2, msg: "t:2: line 3: unterminated block comment"},
		{src: "s(\"abc).", line: 1, msg: "t:1: line 1: unterminated string"},
		{src: "x :- `.", line: 1, msg: "t:1: line 1: unexpected character '`'"},
		{src: "x :- \x01.", line: 1, msg: "t:1: line 1: unexpected byte 0x1"},
		{src: "x(0'", line: 1, msg: "t:1: line 1: unterminated character code"},
		{src: "x(0''a).", line: 1, msg: "t:1: line 1: expected doubled quote in 0''' character code"},
		{src: "x(99999999999999).", line: 1, msg: "t:1: line 1: integer literal 99999999999999 out of range"},
		{src: "x('abc).", line: 1, msg: "t:1: line 1: unterminated quoted atom"},
		{src: "a.\nx('abc", line: 2, msg: "t:2: line 2: unterminated quoted atom"},
		{src: "'x", term: true, line: 0, msg: "<term>:0: line 1: unterminated quoted atom"},
		{src: "x('a\\", line: 1, msg: "t:1: line 1: unterminated escape"},
		{src: "x('a\\\nb').", line: 1, msg: "t:1: line 2: line continuation escapes are not supported"},
		{src: "x('a\\qb').", line: 1, msg: `t:1: line 1: unknown escape \q`},
	}
	for _, tc := range cases {
		var got any
		var err error
		if tc.term {
			got, err = Term(tc.src)
		} else {
			got, err = Clauses("t", tc.src)
		}
		e, ok := err.(*Error)
		if !ok {
			t.Errorf("%q: error %v, want a *parse.Error", tc.src, err)
			continue
		}
		if e.Line != tc.line || e.Error() != tc.msg {
			t.Errorf("%q: line %d %q, want line %d %q", tc.src, e.Line, e.Error(), tc.line, tc.msg)
		}
		if tc.term && got.(*term.Term) != nil || !tc.term && got.([]*term.Term) != nil {
			t.Errorf("%q: a failed parse returned %v", tc.src, got)
		}
		// Reading into an arena reports the same error and leaves
		// nothing on its stack.
		a := term.NewArena()
		var aerr error
		if tc.term {
			_, aerr = ReadGoal(a, tc.src)
		} else {
			_, aerr = Read(a, "t", tc.src)
		}
		if aerr == nil || aerr.Error() != e.Error() {
			t.Errorf("%q: arena read error %v, want %q", tc.src, aerr, e.Error())
		}
		if a.Depth() != 0 {
			t.Errorf("%q: %d terms left on the arena stack after the error", tc.src, a.Depth())
		}
	}
}

// TestErrorAfterGoodClauses reads clause by clause up to a syntax error
// nested inside a list inside an argument list: the good clauses come
// back intact, the failed read returns no term, and the frames the
// error abandoned leave nothing on the argument stack.
func TestErrorAfterGoodClauses(t *testing.T) {
	p := New("t", "a.\nb(1, [2]).\nc(x, [y, f(z, [w v])]).\n")
	for _, want := range []string{"a", "b(1,[2])"} {
		c, err := p.ReadClause()
		if err != nil || c.String() != want {
			t.Fatalf("ReadClause = %v, %v; want %s", c, err, want)
		}
	}
	c, err := p.ReadClause()
	if c != nil || err == nil || err.Error() != `t:3: expected ']', found "v"` {
		t.Fatalf("ReadClause = %v, %v; want the line-3 error", c, err)
	}
	if p.a.Depth() != 0 {
		t.Errorf("%d terms left on the argument stack after the error", p.a.Depth())
	}
	// Read, the compile path, stops at the same error with the good
	// clauses read.
	a := term.NewArena()
	if cs, rerr := Read(a, "t", "a.\nb(1, [2]).\nc(x, [y, f(z, [w v])]).\n"); cs != nil || rerr == nil || rerr.Error() != err.Error() {
		t.Fatalf("Read = %v, %v; want the line-3 error", cs, rerr)
	}
	if got := a.Clauses(); len(got) != 2 || a.Text(got[0]) != "a" || a.Text(got[1]) != "b(1,[2])" || a.Depth() != 0 {
		t.Errorf("after the error the arena holds %d clauses and %d stacked terms", len(got), a.Depth())
	}
}
