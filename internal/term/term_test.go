package term

import (
	"fmt"
	"sync"
	"testing"
)

func TestConstructors(t *testing.T) {
	a := NewAtom("foo")
	if a.Kind != Atom || a.Functor != "foo" {
		t.Errorf("NewAtom: %+v", a)
	}
	v := NewVar("X")
	if v.Kind != Var || v.Name != "X" {
		t.Errorf("NewVar: %+v", v)
	}
	n := NewInt(-42)
	if n.Kind != Int || n.N != -42 {
		t.Errorf("NewInt: %+v", n)
	}
	c := NewCompound("f", a, v)
	if c.Kind != Compound || c.Arity() != 2 {
		t.Errorf("NewCompound: %+v", c)
	}
	if d := NewCompound("g"); d.Kind != Atom {
		t.Errorf("zero-arg compound should be atom: %+v", d)
	}
}

func TestListHelpers(t *testing.T) {
	l := IntList(1, 2, 3)
	elems, ok := l.ListElems()
	if !ok || len(elems) != 3 || elems[0].N != 1 || elems[2].N != 3 {
		t.Errorf("ListElems = %v %v", elems, ok)
	}
	if !EmptyList().IsEmptyList() {
		t.Error("EmptyList not empty")
	}
	if _, ok := Cons(NewInt(1), NewVar("T")).ListElems(); ok {
		t.Error("partial list should not be proper")
	}
	if !l.IsCons() {
		t.Error("IsCons failed")
	}
}

func TestEqual(t *testing.T) {
	a := NewCompound("f", NewInt(1), FromList(NewAtom("a")))
	b := NewCompound("f", NewInt(1), FromList(NewAtom("a")))
	if !a.Equal(b) {
		t.Error("structurally equal terms reported unequal")
	}
	c := NewCompound("f", NewInt(2), FromList(NewAtom("a")))
	if a.Equal(c) {
		t.Error("unequal terms reported equal")
	}
	if a.Equal(nil) {
		t.Error("Equal(nil)")
	}
	if !NewVar("X").Equal(NewVar("X")) || NewVar("X").Equal(NewVar("Y")) {
		t.Error("var equality by name broken")
	}
}

func TestVars(t *testing.T) {
	tt := NewCompound("f", NewVar("X"), NewCompound("g", NewVar("Y"), NewVar("X"), NewVar("_")))
	vs := tt.Vars()
	if len(vs) != 2 || vs[0] != "X" || vs[1] != "Y" {
		t.Errorf("Vars = %v", vs)
	}
}

func TestRename(t *testing.T) {
	tt := NewCompound("f", NewVar("X"), NewVar("Y"))
	r := tt.Rename(map[string]string{"X": "Z"})
	if r.Args[0].Name != "Z" || r.Args[1].Name != "Y" {
		t.Errorf("Rename = %v", r)
	}
	// original untouched
	if tt.Args[0].Name != "X" {
		t.Error("Rename mutated receiver")
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		t    *Term
		want string
	}{
		{NewAtom("foo"), "foo"},
		{NewAtom("Foo"), "'Foo'"},
		{NewAtom("hello world"), "'hello world'"},
		{NewAtom("=.."), "=.."},
		{NewAtom("[]"), "[]"},
		{NewInt(-7), "-7"},
		{NewVar("X"), "X"},
		{IntList(1, 2), "[1,2]"},
		{Cons(NewInt(1), NewVar("T")), "[1|T]"},
		{NewCompound("f", NewAtom("a"), NewInt(3)), "f(a,3)"},
		{NewCompound("f", NewCompound("g", NewVar("X"))), "f(g(X))"},
		{NewAtom("it's"), `'it\'s'`},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestIndicator(t *testing.T) {
	if NewAtom("a").Indicator() != "a/0" {
		t.Error("atom indicator")
	}
	if NewCompound("f", NewInt(1)).Indicator() != "f/1" {
		t.Error("compound indicator")
	}
}

func TestSymbols(t *testing.T) {
	s := NewSymbols()
	if i := s.Intern("[]"); i != SymEmptyList {
		t.Errorf("[] = %d", i)
	}
	if i := s.Intern("."); i != SymDot {
		t.Errorf(". = %d", i)
	}
	a := s.Intern("alpha")
	b := s.Intern("beta")
	if a == b {
		t.Error("distinct names same index")
	}
	if s.Intern("alpha") != a {
		t.Error("re-intern changed index")
	}
	if s.Name(a) != "alpha" {
		t.Errorf("Name(%d) = %q", a, s.Name(a))
	}
	if _, ok := s.Lookup("gamma"); ok {
		t.Error("Lookup invented symbol")
	}
	if got, ok := s.Lookup("beta"); !ok || got != b {
		t.Error("Lookup failed")
	}
	if s.Name(9999) != "<sym?>" {
		t.Error("out-of-range Name")
	}
	if s.Len() < 7 {
		t.Errorf("Len = %d", s.Len())
	}
}

// TestSymbolsConcurrentInternName races interning against the lock-free
// Name while the names slice keeps growing (and moving) underneath:
// every index a writer gets back names its string, and every index
// below an observed Len names a string that maps back to it. Run it
// under -race to check the publication.
func TestSymbolsConcurrentInternName(t *testing.T) {
	s := NewSymbols()
	const writers, readers, per = 4, 2, 400
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				name := fmt.Sprintf("w%d-%d", w, k)
				if i := s.Intern(name); s.Name(i) != name {
					t.Errorf("Name(Intern(%q)) = %q", name, s.Name(i))
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < writers*per; k++ {
				n := s.Len()
				i := uint32(k % n)
				name := s.Name(i)
				if got, ok := s.Lookup(name); !ok || got != i {
					t.Errorf("Name(%d) = %q (Len %d), which looks up as %d, %v", i, name, n, got, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, want := s.Len(), 6+writers*per; got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
}
