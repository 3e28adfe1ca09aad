package kl0_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

	psi "repro"
	"repro/internal/kl0"
	"repro/internal/parse"
	"repro/internal/progs"
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
// then handler query, then main query) and digests the image: the code
// words, every procedure's clause table, the code ranges and the
// queries' start, frame size and variable names.
func imageDigest(t *testing.T, b progs.Benchmark) string {
	t.Helper()
	cs, err := parse.Clauses(b.Name, b.Source)
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	prog := kl0.NewProgram(nil)
	if err := prog.AddClauses(cs); err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	var queries []string
	for _, src := range []string{b.Handler, b.Query} {
		if src == "" {
			continue
		}
		g, err := parse.Term(src)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		q, err := prog.CompileQuery(g)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
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
