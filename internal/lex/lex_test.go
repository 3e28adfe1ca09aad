package lex

import "testing"

func kinds(toks []Token) []Kind {
	ks := make([]Kind, len(toks))
	for i, t := range toks {
		ks[i] = t.Kind
	}
	return ks
}

func TestBasicTokens(t *testing.T) {
	toks, err := All("foo Bar 42 _x [] ( ) , | .")
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{AtomTok, VarTok, IntTok, VarTok, PunctTok, PunctTok, PunctTok, PunctTok, PunctTok, PunctTok, EndTok, EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v", toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v (%q), want %v", i, got[i], toks[i].Text, want[i])
		}
	}
}

func TestFunctorDetection(t *testing.T) {
	toks, err := All("foo(1). foo (1).")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != FunctTok {
		t.Errorf("foo( should be functor, got %v", toks[0].Kind)
	}
	// 'foo (' with space is an atom then paren
	if toks[5].Kind != AtomTok {
		t.Errorf("foo followed by space should be atom, got %v %q", toks[5].Kind, toks[5].Text)
	}
}

func TestSymbolAtoms(t *testing.T) {
	toks, err := All("X =.. Y :- a = b \\= c.")
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{"X", "=..", "Y", ":-", "a", "=", "b", "\\=", "c"}
	for i, w := range texts {
		if toks[i].Text != w {
			t.Errorf("token %d = %q, want %q", i, toks[i].Text, w)
		}
	}
	if toks[len(texts)].Kind != EndTok {
		t.Error("missing end token")
	}
}

func TestEndVsDotFunctor(t *testing.T) {
	toks, err := All(".(a,b).")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != FunctTok || toks[0].Text != "." {
		t.Errorf("dot functor: %v %q", toks[0].Kind, toks[0].Text)
	}
	if toks[len(toks)-2].Kind != EndTok {
		t.Error("clause end missing")
	}
}

func TestQuotedAtoms(t *testing.T) {
	toks, err := All(`'hello world' 'it''s' 'a\nb' 'q'(1).`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "hello world" || toks[0].Kind != AtomTok {
		t.Errorf("quoted atom: %+v", toks[0])
	}
	if toks[1].Text != "it's" {
		t.Errorf("doubled quote: %q", toks[1].Text)
	}
	if toks[2].Text != "a\nb" {
		t.Errorf("escape: %q", toks[2].Text)
	}
	if toks[3].Kind != FunctTok || toks[3].Text != "q" {
		t.Errorf("quoted functor: %+v", toks[3])
	}
}

func TestStrings(t *testing.T) {
	toks, err := All(`"abc" "x""y".`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != StrTok || toks[0].Text != "abc" {
		t.Errorf("string: %+v", toks[0])
	}
	if toks[1].Text != `x"y` {
		t.Errorf("doubled dquote: %q", toks[1].Text)
	}
}

func TestCharCode(t *testing.T) {
	toks, err := All(`0'a 0'\n 0''' 7.`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Int != 'a' {
		t.Errorf("0'a = %d", toks[0].Int)
	}
	if toks[1].Int != '\n' {
		t.Errorf("0'\\n = %d", toks[1].Int)
	}
	if toks[2].Int != '\'' {
		t.Errorf("0''' = %d", toks[2].Int)
	}
	if toks[3].Int != 7 {
		t.Errorf("7 = %d", toks[3].Int)
	}
}

func TestComments(t *testing.T) {
	toks, err := All("a % line comment\nb /* block\ncomment */ c.")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 5 { // a b c . eof
		t.Fatalf("got %v", toks)
	}
	if toks[2].Text != "c" || toks[2].Line != 3 {
		t.Errorf("line tracking: %+v", toks[2])
	}
}

func TestErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", `"unterminated`, "/* unterminated", `'bad \q escape'`} {
		if _, err := All(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestSoloAtoms(t *testing.T) {
	toks, err := All("! ; a.")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != AtomTok || toks[0].Text != "!" {
		t.Errorf("cut token: %+v", toks[0])
	}
	if toks[1].Kind != AtomTok || toks[1].Text != ";" {
		t.Errorf("semicolon token: %+v", toks[1])
	}
}

func TestTokenString(t *testing.T) {
	if (Token{Kind: IntTok, Int: 5}).String() != "5" {
		t.Error("int token string")
	}
	if (Token{Kind: EOF}).String() != "<eof>" {
		t.Error("eof token string")
	}
	if AtomTok.String() != "atom" {
		t.Error("kind string")
	}
}

// countAllocs reports the allocations of tokenizing src to EOF.
func countAllocs(t *testing.T, src string) float64 {
	t.Helper()
	return testing.AllocsPerRun(100, func() {
		l := New(src)
		var tok Token
		for {
			if err := l.Scan(&tok); err != nil {
				t.Fatal(err)
			}
			if tok.Kind == EOF {
				return
			}
		}
	})
}

// TestTokenizeAllocations guards the reader's hot path: punctuation,
// atoms, variables and integers take their text from the source, so a
// fact line tokenizes without allocating. Only tokens whose text differs
// from the source — quoted atoms and strings, built with escapes
// resolved — may allocate, one string each.
func TestTokenizeAllocations(t *testing.T) {
	if n := countAllocs(t, "f(1, 2, [3, 4, 5]).\ng(X, a, {b} ; !) :- h([Y|Z]).\n"); n != 0 {
		t.Errorf("fact and rule lines: %.1f allocations, want 0", n)
	}
	if n := countAllocs(t, `p('it''s', "ab").`); n > 2 {
		t.Errorf("one quoted atom and one string: %.1f allocations, want at most 2", n)
	}
}
