package kl0

// Property/fuzz coverage for the first-argument clause index: on any
// predicate with mixed first-argument shapes (atoms, integers, nil,
// lists, structures, variables and voids), the index's candidate list
// for every probe key must equal a straight linear scan over the
// clauses — same members, same source order. The reference scan is
// computed from the generator's ground truth about each clause's
// first-argument kind, not from the index builder's own classification.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/parse"
	"repro/internal/word"
)

// fuzzArg is one first-argument shape the generator can emit.
// kind: 0 = variable (matches every key), 1 = constant, 2 = structure.
type fuzzArg struct {
	src  string
	kind int
}

var fuzzArgs = []fuzzArg{
	{"a", 1}, {"b", 1}, {"c", 1}, // atoms
	{"0", 1}, {"7", 1}, {"12345", 1}, // integers
	{"[]", 1},                   // nil is a constant
	{"[H|T]", 2},                // lists are './2' structures
	{"f(Q)", 2}, {"f(Q, R)", 2}, // same name, different arity
	{"g(Q)", 2}, {"point(Q, R, S)", 2}, // other functors
	{"X", 0}, {"_", 0}, // variable / void first arguments
}

// buildFuzzProc compiles `p/2` facts whose first arguments follow data
// (one byte selects one fuzzArg per clause) and returns the program,
// the procedure id and the ground-truth kind of each clause.
func buildFuzzProc(t *testing.T, data []byte) (*Program, int, []int) {
	t.Helper()
	var b strings.Builder
	kinds := make([]int, len(data))
	for i, d := range data {
		a := fuzzArgs[int(d)%len(fuzzArgs)]
		kinds[i] = a.kind
		fmt.Fprintf(&b, "p(%s, %d).\n", a.src, i)
	}
	cs, err := parse.Clauses("fuzz", b.String())
	if err != nil {
		t.Fatalf("generated source failed to parse: %v\n%s", err, b.String())
	}
	prog := NewProgram(nil)
	if err := prog.AddClauses(cs); err != nil {
		t.Fatalf("generated source failed to compile: %v\n%s", err, b.String())
	}
	pi, ok := prog.LookupProc("p", 2)
	if !ok {
		t.Fatal("p/2 not found after compile")
	}
	return prog, pi, kinds
}

// firstArg returns the compiled first-argument word of clause k.
func firstArg(p *Program, proc *Proc, k int) word.Word {
	return p.Code[proc.Clauses[k].Start+1]
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func FuzzClauseIndexSelection(f *testing.F) {
	// Seeds: every shape once; const-heavy; struct-heavy; var sandwich
	// (variable clauses must appear mid-bucket in source order); dup keys.
	f.Add([]byte{0, 3, 6, 7, 8, 12, 13})
	f.Add([]byte{0, 0, 1, 4, 4, 2, 5, 6, 6})
	f.Add([]byte{7, 8, 9, 10, 11, 7, 8})
	f.Add([]byte{0, 12, 1, 13, 0, 12, 7})
	f.Add([]byte{12, 12, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 24 {
			data = data[:24]
		}
		prog, pi, kinds := buildFuzzProc(t, data)
		proc := prog.Procs[pi]
		ix := prog.Index(pi)

		// ref is the linear-scan reference: clause k is a candidate iff
		// its first argument is a variable or match(k) holds.
		ref := func(match func(k int) bool) []int {
			var out []int
			for k := range kinds {
				if kinds[k] == 0 || match(k) {
					out = append(out, k)
				}
			}
			return out
		}

		// The var bucket is the reference scan with nothing matching.
		varOnly := ref(func(int) bool { return false })
		if !eqInts(ix.VarOnly, varOnly) {
			t.Errorf("VarOnly: index %v, linear scan %v", ix.VarOnly, varOnly)
		}

		// Probe with every clause's own compiled first argument.
		for k := range kinds {
			arg := firstArg(prog, proc, k)
			switch arg.Tag() {
			case word.TagAtom, word.TagInt, word.TagNil:
				got := ix.SelectConst(arg)
				want := ref(func(j int) bool {
					o := firstArg(prog, proc, j)
					return kinds[j] == 1 && o.Tag() == arg.Tag() && o.Data() == arg.Data()
				})
				if !eqInts(got, want) {
					t.Errorf("SelectConst(clause %d key %v): index %v, linear scan %v", k, arg, got, want)
				}
			case word.TagSkel:
				fd := prog.Code[arg.Addr()].Data()
				got := ix.SelectStruct(fd)
				want := ref(func(j int) bool {
					o := firstArg(prog, proc, j)
					return kinds[j] == 2 && o.Tag() == word.TagSkel && prog.Code[o.Addr()].Data() == fd
				})
				if !eqInts(got, want) {
					t.Errorf("SelectStruct(clause %d functor %#x): index %v, linear scan %v", k, fd, got, want)
				}
			}
		}

		// Probes absent from every bucket fall back to the var bucket.
		if got := ix.SelectConst(word.Int32(99991)); !eqInts(got, varOnly) {
			t.Errorf("SelectConst(absent int): index %v, var bucket %v", got, varOnly)
		}
		if got := ix.SelectStruct(0xfedc07); !eqInts(got, varOnly) {
			t.Errorf("SelectStruct(absent functor): index %v, var bucket %v", got, varOnly)
		}

		// Retracting a clause must not disturb the published buckets
		// (dispatch filters dead clauses via NDead), and the dead count
		// must stay idempotent under double retract.
		k := int(data[0]) % len(kinds)
		prog.RetractClause(pi, k)
		prog.RetractClause(pi, k)
		if nd := proc.NDead(); nd != 1 {
			t.Errorf("NDead after double retract of one clause: got %d, want 1", nd)
		}
		if ix2 := prog.Index(pi); !eqInts(ix2.VarOnly, varOnly) {
			t.Errorf("VarOnly changed across retract: %v vs %v", ix2.VarOnly, varOnly)
		}
	})
}

// TestClauseIndexZeroArity covers the one shape the fuzz generator
// cannot reach: a zero-arity predicate has no first argument, so every
// clause lands in the var bucket and any probe returns all clauses.
func TestClauseIndexZeroArity(t *testing.T) {
	cs, err := parse.Clauses("t", "q.\nq.\nq.\n")
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram(nil)
	if err := prog.AddClauses(cs); err != nil {
		t.Fatal(err)
	}
	pi, ok := prog.LookupProc("q", 0)
	if !ok {
		t.Fatal("q/0 not found")
	}
	ix := prog.Index(pi)
	if want := []int{0, 1, 2}; !eqInts(ix.VarOnly, want) {
		t.Fatalf("zero-arity VarOnly: got %v, want %v", ix.VarOnly, want)
	}
}

// TestClauseIndexLazyBuild checks that compiling builds no index, that
// the first Index call builds one for the current clause count and later
// calls return that same index, and that concurrent first calls (run it
// under -race) all receive one published pointer.
func TestClauseIndexLazyBuild(t *testing.T) {
	prog, pi, _ := buildFuzzProc(t, []byte{0, 7, 12})
	proc := prog.Procs[pi]
	if proc.index.Load() != nil {
		t.Fatal("compile published an index")
	}
	ix := prog.Index(pi)
	if ix.built != len(proc.Clauses) {
		t.Fatalf("index built for %d clauses, proc has %d", ix.built, len(proc.Clauses))
	}
	if got := prog.Index(pi); got != ix {
		t.Fatal("Index rebuilt despite unchanged clause list")
	}

	prog, pi, _ = buildFuzzProc(t, []byte{1, 8, 13, 3})
	const callers = 8
	got := make([]*ClauseIndex, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = prog.Index(pi)
		}(g)
	}
	wg.Wait()
	for g, ix := range got {
		if ix == nil || ix != got[0] {
			t.Fatalf("caller %d got index %p, caller 0 got %p", g, ix, got[0])
		}
	}
}
