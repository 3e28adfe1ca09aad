package kl0

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/parse"
	"repro/internal/term"
)

// factBase writes n clauses of the serving workload's fact shape,
// f(K, V, [A, B, C]), with scrambled values.
func factBase(n int) string {
	var b strings.Builder
	for k := 0; k < n; k++ {
		fmt.Fprintf(&b, "f(%d, %d, [%d, %d, %d]).\n", k, (k*7919+13)%1000003, k%1000, k*31%1000, k*57%1000)
	}
	return b.String()
}

// TestCompileAllocations guards the compile-miss path against
// per-clause allocation on a 1,500-clause fact base. Through source
// terms (parse.Clauses, then AddClauses) the load draws terms from the
// converter's slabs and compiles from a pooled arena and scratch, so it
// stays under one allocation per clause. Through the arena, the path
// every compile miss takes, a warm arena and scratch leave only the
// image's own slices (code, procedure and clause tables, code ranges):
// a few dozen allocations for the whole program.
func TestCompileAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const n = 1500
	src := factBase(n)
	t.Run("terms", func(t *testing.T) {
		allocs := testing.AllocsPerRun(5, func() {
			cs, err := parse.Clauses("facts", src)
			if err != nil {
				t.Fatal(err)
			}
			if err := NewProgram(nil).AddClauses(cs); err != nil {
				t.Fatal(err)
			}
		})
		if per := allocs / n; per > 1 {
			t.Errorf("parse + AddClauses: %.2f allocations per clause, want at most 1", per)
		}
	})
	t.Run("arena", func(t *testing.T) {
		const bound = 50
		allocs := testing.AllocsPerRun(5, func() {
			if err := NewProgram(nil).AddSource("facts", src); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("AddSource: %.0f allocations for %d clauses", allocs, n)
		if allocs > bound {
			t.Errorf("AddSource: %.0f allocations for %d clauses, want at most %d", allocs, n, bound)
		}
	})
}

func BenchmarkParseFacts(b *testing.B) {
	const n = 1500
	src := factBase(n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parse.Clauses("facts", src); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/clause")
}

func BenchmarkAddClausesFacts(b *testing.B) {
	const n = 1500
	cs, err := parse.Clauses("facts", factBase(n))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := NewProgram(nil).AddClauses(cs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/clause")
}

// BenchmarkReadFacts is BenchmarkParseFacts on the arena path.
func BenchmarkReadFacts(b *testing.B) {
	const n = 1500
	src := factBase(n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := term.GetArena()
		if _, err := parse.Read(a, "facts", src); err != nil {
			b.Fatal(err)
		}
		a.Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/clause")
}

// BenchmarkCompileFacts is BenchmarkAddClausesFacts on the arena path.
func BenchmarkCompileFacts(b *testing.B) {
	const n = 1500
	a := term.GetArena()
	defer a.Release()
	cs, err := parse.Read(a, "facts", factBase(n))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := NewProgram(nil).Compile(a, cs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/clause")
}
