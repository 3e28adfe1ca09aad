package builtin

import "testing"

// TestLookupResolvesTable checks that every canonical spec and every
// alias resolves through Lookup to its ID, and that user predicates,
// including built-in names at another arity, do not.
func TestLookupResolvesTable(t *testing.T) {
	for _, s := range Specs() {
		if id, ok := Lookup(s.Name, s.Arity); !ok || id != s.ID {
			t.Errorf("Lookup(%s) = %v, %v; want %v", s.Indicator(), id, ok, s.ID)
		}
	}
	for k, want := range aliases {
		if id, ok := Lookup(k.name, k.arity); !ok || id != want {
			t.Errorf("alias Lookup(%s/%d) = %v, %v; want %v", k.name, k.arity, id, ok, want)
		}
	}
	for _, u := range []indicator{{"append", 3}, {"nrev", 2}, {"write", 2}, {"call", 3}, {"false", 1}, {"", 0}} {
		if id, ok := Lookup(u.name, u.arity); ok {
			t.Errorf("user predicate %s/%d resolved to built-in %v", u.name, u.arity, id)
		}
	}
}

// TestLookupAllocatesNothing guards the compile path: kl0 and dec10 look
// up every clause head and body goal, so a hit or a miss must not
// allocate.
func TestLookupAllocatesNothing(t *testing.T) {
	name := string([]byte("append")) // not a constant: a real probe key
	if n := testing.AllocsPerRun(100, func() {
		Lookup("is", 2)
		Lookup(name, 3)
	}); n != 0 {
		t.Fatalf("Lookup allocates %.1f times per hit+miss", n)
	}
}
