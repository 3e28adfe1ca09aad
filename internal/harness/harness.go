// Package harness runs the paper's evaluation: it executes the benchmark
// programs on the PSI machine and the DEC-10 baseline and regenerates
// every table and figure of the paper (Tables 1-7, Figure 1, and the
// cache ablations discussed in section 4.2).
//
// Benchmarks are parsed and compiled once per process (see Compile) and
// the resulting read-only code images are shared by every machine that
// runs them; machines themselves are pooled and reset between runs. The
// evaluation can therefore simulate each distinct run once on a bounded
// worker pool (see Options) and render every table from those runs
// without changing a single byte of output.
package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dec10"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/trace"
)

// PSIRun is the outcome of one PSI execution.
type PSIRun struct {
	Machine *core.Machine
	Trace   *trace.Log // nil unless requested
}

// RunPSI executes a benchmark on the PSI machine. When collect is true, a
// full COLLECT trace is attached (needed for PMMS replay and MAP). The
// compiled program comes from the shared cache; the machine comes from
// the pool and can be handed back with Release.
func RunPSI(b progs.Benchmark, collect bool) (*PSIRun, error) {
	c, err := Compile(b)
	if err != nil {
		return nil, err
	}
	return c.Run(collect, core.Features{})
}

// Profile executes a benchmark with the simulated-workload profiler
// attached and returns the per-predicate flat profile. The profile's
// TotalCycles equals the run's micro.Stats.Steps exactly: every cycle is
// attributed to precisely one predicate (or to "<main>" for query glue).
// The profiler is not a per-cycle tap: the run accounts in fast mode.
func Profile(b progs.Benchmark) (*obs.RunProfile, error) {
	c, err := Compile(b)
	if err != nil {
		return nil, err
	}
	p := obs.NewProfiler()
	r, err := c.run(runOpts{profile: p})
	if err != nil {
		return nil, err
	}
	rp := p.Profile(r.Machine.Program(), b.Name)
	r.Release()
	return rp, nil
}

// RunDEC executes a benchmark on the DEC-10 baseline. The baseline is
// compiled once; the machine runs on a private snapshot of the image.
func RunDEC(b progs.Benchmark) (*dec10.Machine, error) {
	return runDECWith(Options{}, b)
}

// runDECWith is RunDEC with the Options' context and step bound applied;
// like the PSI side, the baseline is driven through its engine session.
func runDECWith(o Options, b progs.Benchmark) (*dec10.Machine, error) {
	c, err := Compile(b)
	if err != nil {
		return nil, err
	}
	prog, q, err := c.DEC(b.Source)
	if err != nil {
		return nil, err
	}
	m := dec10.New(prog, dec10.Config{MaxUnits: o.maxSteps()})
	sess := dec10.NewSession(m, q)
	if st, err := sess.Next(o.Ctx); st != engine.Solution {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		return nil, fmt.Errorf("%s: DEC query %q failed", b.Name, b.Query)
	}
	return m, nil
}
