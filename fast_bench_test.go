package psi

// Paired benchmark of the untapped tick against the same run with a
// per-cycle micro.Stats tap — the cost a trace or per-cycle profile
// consumer pays. Run both lanes in one invocation so they share the
// process and its frequency window:
//
//	go test -run '^$' -bench FastVsExact -benchtime 20x .
//
// The committed BENCH_fast.json is produced by `make bench-fast`
// (cmd/benchengine -fast), which interleaves the lanes run by run — the
// trustworthy ratio estimator on a noisy host. This benchmark is the
// quick profiling entry point for the same workload.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/micro"
	"repro/internal/progs"
)

func BenchmarkFastVsExact(b *testing.B) {
	c, err := harness.Compile(progs.NReverse)
	if err != nil {
		b.Fatal(err)
	}
	var ref micro.Stats
	for _, lane := range []struct {
		name string
		tap  micro.Sink
	}{{"exact", &ref}, {"fast", nil}} {
		b.Run(lane.name, func(b *testing.B) {
			cfg := core.Config{MaxSteps: 4_000_000_000, Trace: lane.tap}
			m := core.New(c.Prog, cfg)
			if got, want := m.AccountingMode(), lane.name; got != want {
				b.Fatalf("lane %q runs in mode %q", want, got)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !m.Reset(c.Prog, cfg) {
					b.Fatal("Reset refused")
				}
				sols := m.SolveQuery(c.Query)
				if _, ok := sols.Next(); !ok {
					b.Fatal(sols.Err())
				}
			}
		})
	}
}
