package kl0

import (
	"strings"
	"testing"

	"repro/internal/parse"
	"repro/internal/term"
	"repro/internal/word"
)

func compile(t *testing.T, src string) *Program {
	t.Helper()
	cs, err := parse.Clauses("test", src)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProgram(nil)
	if err := p.AddClauses(cs); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFactCompilation(t *testing.T) {
	p := compile(t, "likes(mary, wine).")
	idx, ok := p.LookupProc("likes", 2)
	if !ok {
		t.Fatal("proc not registered")
	}
	pr := p.Procs[idx]
	if pr.Indicator() != "likes/2" || len(pr.Clauses) != 1 {
		t.Fatalf("proc: %+v", pr)
	}
	ci := pr.Clauses[0]
	info := p.Code[ci.Start]
	if info.Tag() != word.TagInfo || info.InfoArity() != 2 || info.InfoLocals() != 0 || info.InfoGlobals() != 0 {
		t.Errorf("info word: %v", info)
	}
	if p.Code[ci.Start+1].Tag() != word.TagAtom || p.Code[ci.Start+2].Tag() != word.TagAtom {
		t.Error("head args should be atoms")
	}
	if p.Code[ci.Start+3].Tag() != word.TagEnd {
		t.Error("missing end word")
	}
}

func TestVariableClassification(t *testing.T) {
	// X: head top-level + goal top-level -> local
	// Y: inside compound -> global (eager)
	// Z: void (single occurrence)
	// W: top-level only -> local (unsafe values are globalized at run
	//    time by the machine, not statically)
	p := compile(t, `
q(_, _, _). r(_). s(_, _).
p(X, f(Y), Z) :- q(X, Y, W), r(X), s(W, W).
`)
	idx, _ := p.LookupProc("p", 3)
	ci := p.Procs[idx].Clauses[0]
	if ci.NLocals != 2 {
		t.Errorf("nlocals = %d, want 2 (X, W)", ci.NLocals)
	}
	if ci.NGlobals != 1 {
		t.Errorf("nglobals = %d, want 1 (Y)", ci.NGlobals)
	}
	// Z is void in head position.
	if w := p.Code[ci.Start+3]; w.Tag() != word.TagVoid {
		t.Errorf("Z arg word = %v, want void", w)
	}
	// X is the only local; its head occurrence is the fresh one.
	if w := p.Code[ci.Start+1]; w.Tag() != word.TagLocal || w.VarIndex() != 0 || !w.IsFresh() {
		t.Errorf("X arg word = %v, want fresh local 0", w)
	}
	// X's later occurrences are not fresh: find the r(X) goal argument.
	code := p.Code[ci.Start:]
	seenFresh := 0
	for _, w := range code {
		if w.Tag() == word.TagLocal && w.VarIndex() == 0 {
			if w.IsFresh() {
				seenFresh++
			}
		}
	}
	if seenFresh != 1 {
		t.Errorf("local X has %d fresh occurrences, want exactly 1", seenFresh)
	}
}

func TestSkeletonLayout(t *testing.T) {
	p := compile(t, "p(f(g(X), X)).")
	idx, _ := p.LookupProc("p", 1)
	ci := p.Procs[idx].Clauses[0]
	arg := p.Code[ci.Start+1]
	if arg.Tag() != word.TagSkel {
		t.Fatalf("arg = %v", arg)
	}
	f := p.Code[arg.Addr()]
	if f.Tag() != word.TagFunc || f.FuncArity() != 2 || p.Syms.Name(f.FuncSym()) != "f" {
		t.Fatalf("functor word = %v", f)
	}
	inner := p.Code[arg.Addr()+1]
	if inner.Tag() != word.TagSkel {
		t.Fatalf("nested arg = %v", inner)
	}
	g := p.Code[inner.Addr()]
	if g.Tag() != word.TagFunc || p.Syms.Name(g.FuncSym()) != "g" || g.FuncArity() != 1 {
		t.Fatalf("nested functor = %v", g)
	}
	// X occurs twice inside compounds: global slot 0 in both places.
	if x := p.Code[arg.Addr()+2]; x.Tag() != word.TagGlobal || x.Data() != 0 {
		t.Errorf("outer X = %v", x)
	}
	if x := p.Code[inner.Addr()+1]; x.Tag() != word.TagGlobal || x.Data() != 0 {
		t.Errorf("inner X = %v", x)
	}
}

func TestListsAndConstants(t *testing.T) {
	p := compile(t, "p([1,a], []).")
	idx, _ := p.LookupProc("p", 2)
	ci := p.Procs[idx].Clauses[0]
	if w := p.Code[ci.Start+2]; w != word.Nil {
		t.Errorf("[] should compile to the nil word, got %v", w)
	}
	cons := p.Code[ci.Start+1]
	if cons.Tag() != word.TagSkel {
		t.Fatalf("list arg = %v", cons)
	}
	f := p.Code[cons.Addr()]
	if p.Syms.Name(f.FuncSym()) != "." || f.FuncArity() != 2 {
		t.Errorf("list functor = %v", f)
	}
	if h := p.Code[cons.Addr()+1]; h.Tag() != word.TagInt || h.Int() != 1 {
		t.Errorf("list head = %v", h)
	}
}

func TestGoalEncoding(t *testing.T) {
	p := compile(t, `
q(_).
p(X) :- q(X), X = 3, !, q(X).
`)
	idx, _ := p.LookupProc("p", 1)
	qidx, _ := p.LookupProc("q", 1)
	ci := p.Procs[idx].Clauses[0]
	code := p.Code[ci.Start:]
	// info, head X, goal q/1, X, builtin =/2, X, 3, cut, goal q/1, X, end
	if g := code[2]; g.Tag() != word.TagGoal || int(g.FuncSym()) != qidx || g.FuncArity() != 1 {
		t.Errorf("first goal word = %v", g)
	}
	if b := code[4]; b.Tag() != word.TagBuiltin || Builtin(b.FuncSym()) != BUnify {
		t.Errorf("builtin word = %v", b)
	}
	if c := code[7]; c.Tag() != word.TagCut {
		t.Errorf("cut word = %v", c)
	}
	if e := code[10]; e.Tag() != word.TagEnd {
		t.Errorf("end word = %v", e)
	}
}

func TestDisjunctionLifting(t *testing.T) {
	p := compile(t, `
a. b.
p(X) :- (a ; b), q(X).
q(_).
`)
	found := false
	for _, pr := range p.Procs {
		if strings.HasPrefix(pr.Name, "$aux") {
			found = true
			if len(pr.Clauses) != 2 {
				t.Errorf("aux should have 2 clauses, has %d", len(pr.Clauses))
			}
		}
	}
	if !found {
		t.Error("no auxiliary predicate generated for disjunction")
	}
}

func TestIfThenElseLifting(t *testing.T) {
	p := compile(t, `
c(1).
p(X, Y) :- (c(X) -> Y = yes ; Y = no).
`)
	aux := 0
	for _, pr := range p.Procs {
		if strings.HasPrefix(pr.Name, "$aux") {
			aux++
			if len(pr.Clauses) != 2 {
				t.Errorf("ITE aux should have 2 clauses, has %d", len(pr.Clauses))
			}
		}
	}
	if aux != 1 {
		t.Errorf("aux count = %d", aux)
	}
}

func TestNegationLifting(t *testing.T) {
	p := compile(t, `
c(1).
p(X) :- \+ c(X).
`)
	aux := 0
	for _, pr := range p.Procs {
		if strings.HasPrefix(pr.Name, "$aux") {
			aux++
			if len(pr.Clauses) != 2 {
				t.Errorf("negation aux clauses = %d", len(pr.Clauses))
			}
		}
	}
	if aux != 1 {
		t.Errorf("aux count = %d", aux)
	}
}

func TestErrors(t *testing.T) {
	bad := []string{
		"p :- undefined_thing(1).",  // undefined predicate
		"p :- (a, ! ; b).\na.\nb.",  // cut inside disjunct
		"p :- 3.",                   // integer goal
		"=(a, b).",                  // redefining a builtin
		":- foo.",                   // directive
		"p(X) :- X is 99999999999.", // integer overflow is caught at emit
	}
	for _, src := range bad {
		cs, err := parse.Clauses("t", src)
		if err != nil {
			t.Fatalf("parse error in test source %q: %v", src, err)
		}
		p := NewProgram(nil)
		err = p.AddClauses(cs)
		if err == nil {
			t.Errorf("AddClauses(%q) should fail", src)
			continue
		}
		if aerr := NewProgram(nil).AddSource("t", src); aerr == nil || aerr.Error() != err.Error() {
			t.Errorf("AddSource(%q) = %v, AddClauses gave %v", src, aerr, err)
		}
	}
}

func TestCompileQuery(t *testing.T) {
	p := compile(t, "p(1). p(2).")
	q, err := p.CompileQuery(mustTerm(t, "p(X), p(Y)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Vars) != 2 || q.Vars[0] != "X" || q.Vars[1] != "Y" {
		t.Errorf("query vars: %v", q.Vars)
	}
	info := p.Code[q.Start]
	if info.InfoGlobals() != 2 || info.InfoArity() != 0 {
		t.Errorf("query info: %v", info)
	}
}

func TestQueryWithUndefined(t *testing.T) {
	p := compile(t, "p(1).")
	if _, err := p.CompileQuery(mustTerm(t, "nosuch(X)")); err == nil {
		t.Error("query on undefined predicate should fail")
	}
}

func TestVarGoalIsMetacall(t *testing.T) {
	p := compile(t, "p(G) :- G.\nq.")
	idx, _ := p.LookupProc("p", 1)
	ci := p.Procs[idx].Clauses[0]
	g := p.Code[ci.Start+2]
	if g.Tag() != word.TagBuiltin || Builtin(g.FuncSym()) != BCall {
		t.Errorf("variable goal should compile to call/1, got %v", g)
	}
}

func TestBuiltinLookup(t *testing.T) {
	if b, ok := LookupBuiltin("is", 2); !ok || b != BIs {
		t.Error("is/2 lookup")
	}
	if _, ok := LookupBuiltin("is", 3); ok {
		t.Error("is/3 should not exist")
	}
	if BIs.String() != "is/2" {
		t.Errorf("BIs.String() = %q", BIs.String())
	}
}

func mustTerm(t *testing.T, src string) *term.Term {
	t.Helper()
	tm, err := parse.Term(src)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}
