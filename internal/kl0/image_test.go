package kl0_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	psi "repro"
	"repro/internal/kl0"
	"repro/internal/parse"
	"repro/internal/progs"
	"repro/internal/term"
)

var updateImage = flag.Bool("update", false, "rewrite testdata/code-image.txt from the current compiler")

const imageGolden = "testdata/code-image.txt"

// imageWide writes clauses and a query with more distinct variables than
// the compiler finds by scanning, so the name-indexed path is pinned too.
func imageWide(n int) (src, query string) {
	xs := make([]string, n)
	for i := range xs {
		xs[i] = fmt.Sprintf("X%d", i)
	}
	var b strings.Builder
	b.WriteString("v(_, _).\n")
	fmt.Fprintf(&b, "big(%s).\n", strings.Join(xs, ", "))
	fmt.Fprintf(&b, "w(%s) :- ", strings.Join(xs, ", "))
	for i := 0; i+1 < n; i += 2 {
		fmt.Fprintf(&b, "v(X%d, g(X%d, Y%d)), ", i, i+1, i)
	}
	b.WriteString("v(Z, [X0|Z]).\n")
	return b.String(), fmt.Sprintf("w(%s)", strings.Join(xs, ", "))
}

// imageCorpus is the pinned compile corpus: the Table 1 programs,
// window-2 (which has an interrupt-handler query), the standard
// library, one generated fact base and one program of wide clauses.
func imageCorpus() []progs.Benchmark {
	bs := progs.Table1()
	bs = append(bs, progs.Window2,
		progs.Benchmark{Name: "stdlib", Source: psi.StdLib, Query: "append(X, Y, [1, 2, 3]), (X = [] -> R = Y ; \\+ Y = [], reverse(X, R)), length(Y, N)"},
		progs.Benchmark{Name: "facts-2000", Source: "id(1, 2, 3).\n" + kl0.FactBase(2000), Query: "f(7, X, _)"},
	)
	src, query := imageWide(48)
	return append(bs, progs.Benchmark{Name: "wide-48", Source: src, Query: query})
}

// imageDigest compiles b the way the evaluation harness does (program,
// then handler query, then main query, all from one arena) and digests
// the image: the code
// words, every procedure's clause table, the code ranges and the
// queries' start, frame size and variable names.
func imageDigest(t *testing.T, b progs.Benchmark) string {
	t.Helper()
	prog, qs, err := compileArena(b)
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	var queries []string
	for _, q := range qs {
		queries = append(queries, fmt.Sprintf("%d:%d:%s", q.Start, q.NGlobals, strings.Join(q.Vars, ",")))
	}

	var words []byte
	for _, w := range prog.Code {
		words = binary.LittleEndian.AppendUint64(words, uint64(w))
	}
	code := sha256.New()
	code.Write(words)
	procs := sha256.New()
	for _, p := range prog.Procs {
		fmt.Fprintf(procs, "%s/%d:", p.Name, p.Arity)
		for _, c := range p.Clauses {
			fmt.Fprintf(procs, " %d,%d,%d,%t", c.Start, c.NLocals, c.NGlobals, c.Dead)
		}
		procs.Write([]byte{'\n'})
	}
	ranges := sha256.New()
	for _, r := range prog.CodeRanges() {
		fmt.Fprintf(ranges, "%d-%d:%d\n", r[0], r[1], r[2])
	}
	sum := func(h hash.Hash) string { return fmt.Sprintf("%x", h.Sum(nil))[:16] }
	return fmt.Sprintf("%s words=%d procs=%d code=%s clauses=%s ranges=%s queries=%s",
		strings.ReplaceAll(b.Name, " ", "_"), len(prog.Code), len(prog.Procs),
		sum(code), sum(procs), sum(ranges), strings.Join(queries, ";"))
}

// TestCodeImagePinned pins the compiled image word for word. Code
// offsets set the simulated heap addresses, and with them every cache
// number the evaluation reports, so a compiler change must leave them
// alone. Run with -update only after an intended image change.
func TestCodeImagePinned(t *testing.T) {
	var lines []string
	for _, b := range imageCorpus() {
		lines = append(lines, imageDigest(t, b))
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateImage {
		if err := os.WriteFile(imageGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(imageGolden)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%d images, golden has %d", len(lines), len(wantLines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("code image changed:\n got:  %s\n want: %s", lines[i], wantLines[i])
		}
	}
}

// compileArena compiles b the way the evaluation harness does: the
// program and both queries read into one pooled arena and compiled from
// it.
func compileArena(b progs.Benchmark) (*kl0.Program, []*kl0.Query, error) {
	a := term.GetArena()
	defer a.Release()
	prog := kl0.NewProgram(nil)
	cs, err := parse.Read(a, b.Name, b.Source)
	if err == nil {
		err = prog.Compile(a, cs)
	}
	var qs []*kl0.Query
	for _, src := range []string{b.Handler, b.Query} {
		if src == "" || err != nil {
			continue
		}
		var g term.Clause
		if g, err = parse.ReadGoal(a, src); err == nil {
			var q *kl0.Query
			if q, err = prog.CompileGoal(a, g); err == nil {
				qs = append(qs, q)
			}
		}
	}
	return prog, qs, err
}

// compileTerms compiles b through source terms: parse.Clauses and
// parse.Term, then AddClauses and CompileQuery.
func compileTerms(b progs.Benchmark) (*kl0.Program, []*kl0.Query, error) {
	prog := kl0.NewProgram(nil)
	cs, err := parse.Clauses(b.Name, b.Source)
	if err == nil {
		err = prog.AddClauses(cs)
	}
	var qs []*kl0.Query
	for _, src := range []string{b.Handler, b.Query} {
		if src == "" || err != nil {
			continue
		}
		var g *term.Term
		if g, err = parse.Term(src); err == nil {
			var q *kl0.Query
			if q, err = prog.CompileQuery(g); err == nil {
				qs = append(qs, q)
			}
		}
	}
	return prog, qs, err
}

// imageText writes out a whole image: the symbol table in numbering
// order, every procedure with its clause table, the code ranges, the
// queries and the code words.
func imageText(prog *kl0.Program, qs []*kl0.Query) []string {
	var out []string
	for i := 0; i < prog.Syms.Len(); i++ {
		out = append(out, fmt.Sprintf("sym %d %q", i, prog.Syms.Name(uint32(i))))
	}
	for _, p := range prog.Procs {
		out = append(out, fmt.Sprintf("proc %s/%d sym %d clauses %v", p.Name, p.Arity, p.Sym, p.Clauses))
	}
	for _, r := range prog.CodeRanges() {
		out = append(out, fmt.Sprintf("range %v", r))
	}
	for _, q := range qs {
		out = append(out, fmt.Sprintf("query %d %d %q", q.Start, q.NGlobals, q.Vars))
	}
	for i, w := range prog.Code {
		out = append(out, fmt.Sprintf("code %d %#x", i, uint64(w)))
	}
	return out
}

// TestArenaMatchesTermsImage compiles each program through the arena
// and through source terms, and demands the same image word for word —
// code, symbol numbering, procedures, clause tables, code ranges and
// queries — or the same error.
func TestArenaMatchesTermsImage(t *testing.T) {
	corpus := append(imageCorpus(), progs.Window1, progs.Window3)
	for i, size := range []int{300, 1100, 3000} {
		facts := fmt.Sprintf("id(1, 2, %d).\n", i) + kl0.FactBase(size)
		corpus = append(corpus,
			progs.Benchmark{Name: fmt.Sprintf("distinct-%d", size), Source: facts, Query: "f(7, X, _)"},
			progs.Benchmark{Name: fmt.Sprintf("distinct-stdlib-%d", size), Source: psi.StdLib + "\n" + facts,
				Query: "f(1, A, _), f(2, B, _), max_list([A, B], X)"})
	}
	corpus = append(corpus,
		progs.Benchmark{Name: "undefined", Source: "p :- (q ; r).\nq.\n", Query: "p"},
		progs.Benchmark{Name: "bad-query", Source: "p.", Query: "p, nosuch(X)"},
		progs.Benchmark{Name: "syntax", Source: "p.\nq(.", Query: "p"})
	for _, b := range corpus {
		pa, qa, erra := compileArena(b)
		pt, qt, errt := compileTerms(b)
		if fmt.Sprint(erra) != fmt.Sprint(errt) {
			t.Errorf("%s: arena path error %v, term path error %v", b.Name, erra, errt)
			continue
		}
		ia, it := imageText(pa, qa), imageText(pt, qt)
		for i := 0; i < len(ia) || i < len(it); i++ {
			if i >= len(ia) || i >= len(it) || ia[i] != it[i] {
				t.Errorf("%s: images differ at line %d of %d/%d:\n arena: %v\n terms: %v", b.Name, i, len(ia), len(it), ia[i:min(i+1, len(ia))], it[i:min(i+1, len(it))])
				break
			}
		}
	}
}

// TestConcurrentArenaCompiles compiles programs from several goroutines
// at once, so pooled arenas and scratch pass between them, and demands
// each image equal its serial compile.
func TestConcurrentArenaCompiles(t *testing.T) {
	var corpus []progs.Benchmark
	for i, size := range []int{5, 40, 300} {
		corpus = append(corpus,
			progs.Benchmark{Name: fmt.Sprintf("facts-%d", size), Source: kl0.FactBase(size), Query: "f(1, X, _)"},
			progs.Benchmark{Name: fmt.Sprintf("stdlib-%d", i), Source: psi.StdLib + kl0.FactBase(size), Query: "f(1, X, _), \\+ X = 0"})
	}
	want := make([][]string, len(corpus))
	for i, b := range corpus {
		prog, qs, err := compileArena(b)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = imageText(prog, qs)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3*len(corpus); k++ {
				i := (g + k) % len(corpus)
				prog, qs, err := compileArena(corpus[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got := imageText(prog, qs); !slices.Equal(got, want[i]) {
					t.Errorf("goroutine %d: %s compiled to another image", g, corpus[i].Name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
