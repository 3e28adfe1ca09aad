package harness

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/pmms"
	"repro/internal/progs"
)

// streamingSweepTable runs the streaming sweep — one Sweeper fed the
// memory accesses of each workload's run, all runs on one evaluation plan over the given
// workers — and renders the lane results as a small Figure 1 style
// table. Byte-identical output across worker counts is the contract.
func streamingSweepTable(t *testing.T, workers int, bs []progs.Benchmark) string {
	t.Helper()
	cfgs := []cache.Config{
		pmms.SweepConfig(64), pmms.SweepConfig(1024),
		cache.PSI, pmms.OneSetConfig, pmms.StoreThroughConfig,
	}
	p := newPlan(Options{Workers: workers})
	sweeps := make([]*pmms.Sweeper, len(bs))
	runs := make([]*planRun, len(bs))
	for i, b := range bs {
		sweeps[i] = pmms.NewSweeper(cfgs)
		runs[i] = p.psi("race-smoke/"+b.Name, b, core.Features{})
		runs[i].sweep(sweeps[i])
	}
	p.execute()
	var sb strings.Builder
	for i, b := range bs {
		if err := runs[i].err; err != nil {
			t.Fatal(err)
		}
		for j := range cfgs {
			c := sweeps[i].Cache(j)
			fmt.Fprintf(&sb, "%s %s hit=%.4f stall=%d imp=%.2f\n",
				b.Name, cfgs[j], c.HitRatio(), c.StallNS, sweeps[i].Improvement(j))
		}
	}
	return sb.String()
}

// TestStreamingSweepRaceSmoke drives the streaming fan-out across
// workloads concurrently and demands the formatted sweep table be
// byte-identical at -j1 and -j8. It stays in the -short set on purpose:
// under `go test -race -short` this is the smoke test that sweeps the
// run plan, access feed, lane fan-out and machine-pool paths for data
// races.
func TestStreamingSweepRaceSmoke(t *testing.T) {
	bs := []progs.Benchmark{
		progs.NReverse, progs.QuickSort, progs.TreeTraverse,
		progs.ReverseFunction, progs.BUP1, progs.QueensFirst,
	}
	serial := streamingSweepTable(t, 1, bs)
	parallel := streamingSweepTable(t, 8, bs)
	if serial != parallel {
		line, a, b := firstDiffLine(serial, parallel)
		t.Fatalf("streaming sweep output differs between -j1 and -j8 at line %d:\n j1: %q\n j8: %q", line, a, b)
	}
}

// TestFigure1StreamingWorkerDeterminism checks the real thing: the full
// Figure 1 computation — now a single streaming pass per workload —
// formats byte-identically whether computed serially or on 8 workers.
func TestFigure1StreamingWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure 1 sweep skipped in -short mode")
	}
	serial, err := Figure1With(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Figure1With(Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, b := FormatFigure1(serial), FormatFigure1(parallel)
	if a != b {
		line, la, lb := firstDiffLine(a, b)
		t.Fatalf("Figure 1 output differs between -j1 and -j8 at line %d:\n j1: %q\n j8: %q", line, la, lb)
	}
}
