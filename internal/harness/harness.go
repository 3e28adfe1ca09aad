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
	"repro/internal/micro"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/telemetry"
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

// RunPSIWith is RunPSI with Options threaded through — the entry point
// for callers that need fault plans, step bounds or telemetry on a
// single benchmark run.
func RunPSIWith(o Options, b progs.Benchmark, collect bool) (*PSIRun, error) {
	return runPSIWith(o, b.Name, b, collect)
}

// runPSIWith is RunPSI with the observability extras of Options threaded
// through: heartbeats are tagged with the evaluation cell (e.g.
// "table5/window-1") so `psibench -v` can show where the run is.
func runPSIWith(o Options, cell string, b progs.Benchmark, collect bool) (*PSIRun, error) {
	c, err := Compile(b)
	if err != nil {
		return nil, err
	}
	return c.run(runOpts{
		collect:  collect,
		cell:     cell,
		progress: o.Progress,
		every:    o.ProgressEvery,
		ctx:      o.Ctx,
		maxSteps: o.MaxSteps,
		fault:    o.Fault,
		spans:    o.Spans,
	})
}

// Profile executes a benchmark with the simulated-workload profiler
// attached and returns the per-predicate flat profile. The profile's
// TotalCycles equals the run's micro.Stats.Steps exactly: every cycle is
// attributed to precisely one predicate (or to "<main>" for query glue).
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

// SampleProfile executes a benchmark with the sampling profiler
// attached (stride <= 0 selects telemetry.DefaultSampleStride) and
// returns the statistical per-predicate profile. The run keeps
// AccountingMode "fast" — sampling rides the event boundary instead of
// a per-cycle tap — and the profile's TotalCycles still equals the
// run's micro.Stats.Steps exactly, because the sampler attributes its
// partial tail at the observation boundary. Individual predicate shares are
// estimates; the differential suite bounds them against the exact
// profiler within telemetry.ShareTolerance on the Table 1 programs.
func SampleProfile(b progs.Benchmark, stride int64) (*obs.RunProfile, error) {
	c, err := Compile(b)
	if err != nil {
		return nil, err
	}
	sp := telemetry.NewSamplingProfiler(stride)
	r, err := c.run(runOpts{sample: sp, sampleEvery: stride})
	if err != nil {
		return nil, err
	}
	rp := obs.SampledProfile(sp, r.Machine.Program(), b.Name)
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
	prog, q, err := c.DEC()
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

// StatsFor runs a benchmark and returns its microcycle statistics (no
// trace). The machine is not pooled afterwards — the caller may keep
// using it (e.g. to inspect the cache).
func StatsFor(b progs.Benchmark) (*micro.Stats, *core.Machine, error) {
	r, err := RunPSI(b, false)
	if err != nil {
		return nil, nil, err
	}
	return r.Machine.Stats(), r.Machine, nil
}
