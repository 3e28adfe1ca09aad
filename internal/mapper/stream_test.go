package mapper_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/mapper"
	"repro/internal/progs"
)

// TestAnalyzeMatchesStreamedUsage checks that MAP as a streaming sink
// computes exactly what Analyze computes over a stored COLLECT trace of
// the same workload, and that both agree with the machine's own
// work-file counters.
func TestAnalyzeMatchesStreamedUsage(t *testing.T) {
	bs := []progs.Benchmark{progs.BUP3, progs.Window1}
	if testing.Short() {
		bs = []progs.Benchmark{progs.NReverse}
	}
	for _, b := range bs {
		log, err := harness.TraceFor(b)
		if err != nil {
			t.Fatal(err)
		}
		stored := mapper.Analyze(log)

		c, err := harness.Compile(b)
		if err != nil {
			t.Fatal(err)
		}
		var streamed mapper.WFUsage
		live, err := c.Open(core.Config{MaxSteps: core.DefaultMaxSteps, Trace: &streamed})
		if err != nil {
			t.Fatal(err)
		}
		if st, err := live.Session.Next(context.Background()); st != engine.Solution {
			live.Release()
			t.Fatalf("%s: run ended %v: %v", b.Name, st, err)
		}
		s := *live.Machine.Stats()
		live.Release()

		if streamed != stored {
			t.Errorf("%s: streamed usage %+v, Analyze of the trace %+v", b.Name, streamed, stored)
		}
		if streamed.Steps != s.Steps || streamed.Counts != [3][len(s.Src1)]int64{s.Src1, s.Src2, s.Dest} {
			t.Errorf("%s: streamed usage %+v disagrees with the machine's counters %+v", b.Name, streamed, s)
		}
	}
}
