package kl0

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/parse"
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
// per-clause allocation: parsing a 1,500-clause fact base and compiling
// it into a fresh program allocates from the parser's slabs and the
// program's reused scratch, not one object per term or variable, so the
// whole load stays under one allocation per clause.
func TestCompileAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const n = 1500
	src := factBase(n)
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
