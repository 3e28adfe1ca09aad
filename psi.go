// Package psi is the public API of the PSI machine reproduction: a
// cycle-accounted simulator of ICOT's Personal Sequential Inference
// machine (the microprogrammed KL0/Prolog interpreter evaluated in
// "Performance and Architectural Evaluation of the PSI Machine",
// ASPLOS 1987), together with the paper's DEC-10 Prolog baseline and
// measurement tooling.
//
// Quick start:
//
//	m, err := psi.LoadProgram(`
//	    app([], L, L).
//	    app([H|T], L, [H|R]) :- app(T, L, R).
//	`, psi.Options{})
//	sols, err := m.Solve("app(X, Y, [1,2,3])")
//	for {
//	    ans, ok := sols.Next()
//	    if !ok { break }
//	    fmt.Println(ans["X"], ans["Y"])
//	}
//	fmt.Println(m.Report())
//
// Every run produces the paper's dynamic measurements: microcycle counts
// per firmware module, cache commands and hit ratios per memory area,
// work-file access modes, branch-operation frequencies, and the simulated
// execution time (200 ns per microcycle plus memory stalls).
package psi

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dec10"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/kl0"
	"repro/internal/micro"
	"repro/internal/obs"
	"repro/internal/parse"
	"repro/internal/telemetry"
	"repro/internal/term"
	"repro/internal/trace"
	"repro/internal/word"
)

// Options configures a PSI machine.
type Options struct {
	// CacheWords selects the cache capacity (0 = the PSI's 8K words).
	CacheWords int
	// CacheSets selects the associativity (0 = the PSI's 2 sets).
	CacheSets int
	// StoreThrough switches the write policy from the PSI's store-in.
	StoreThrough bool
	// NoCache disables the cache entirely.
	NoCache bool
	// Processes allocates stack areas for this many processes (0 = 1).
	Processes int
	// Out receives write/1 output (nil = discarded).
	Out io.Writer
	// Collect attaches a COLLECT trace to the run.
	Collect bool
	// Fast is ignored. The machine has a single cycle-accounting path
	// and one profiler (see Machine.AccountingMode); the field remains
	// so existing callers compile.
	Fast bool
	// MaxSteps bounds the simulation (0 = 4e9 steps).
	MaxSteps int64
	// Features ablates individual hardware features or enables the
	// PSI-II extensions (see core.Features).
	Features Features
	// Profile attaches the simulated-workload profiler: every
	// micro-cycle, memory access and cache miss is attributed to the
	// predicate executing it (see Machine.Profile). The machine charges
	// each predicate at its switches, so the profiler is not a per-cycle
	// tap and the run stays in fast accounting mode.
	Profile bool
	// Spans, when non-nil, records a host-time span for every
	// Solutions.Run into the given log, for Chrome trace-event
	// export (`psi -trace-out`). Never affects simulated output.
	Spans *telemetry.SpanLog
	// Progress, when non-nil, receives periodic heartbeats while a
	// query runs. The callback runs on the simulation path and must be
	// cheap. ProgressEvery sets the period in micro-cycles (0 = the
	// core default, 5M cycles = one simulated second).
	Progress      func(obs.Progress)
	ProgressEvery int64
	// Fault, when non-nil, injects a deterministic seeded fault into the
	// simulated hardware (see internal/fault). The detected fault aborts
	// the run with a contained engine.ErrFault instead of a panic. The
	// plan's Only filter is a harness concept and is ignored here: a
	// machine loaded with a plan always carries its injector.
	Fault *fault.Plan
}

// Features re-exports the machine feature switches.
type Features = core.Features

// Machine is a loaded PSI machine.
type Machine struct {
	m      *core.Machine
	log    *trace.Log
	prof   *obs.Profiler
	flight *telemetry.Flight
}

// Solutions enumerates query answers; see (*Machine).Solve.
type Solutions = core.Solutions

// LoadProgram parses and compiles Prolog source and loads it into a
// fresh PSI machine.
func LoadProgram(source string, opts Options) (*Machine, error) {
	prog := kl0.NewProgram(nil)
	if err := prog.AddSource("<program>", source); err != nil {
		return nil, err
	}
	cfg := core.Config{
		Processes: opts.Processes,
		Out:       opts.Out,
		MaxSteps:  opts.MaxSteps,
		NoCache:   opts.NoCache,
		Features:  opts.Features,
	}
	if opts.Fault != nil {
		cfg.Fault = opts.Fault.New()
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = core.DefaultMaxSteps
	}
	cfg.Cache = cache.PSIWith(opts.CacheWords, opts.CacheSets, opts.StoreThrough)
	mm := &Machine{}
	if opts.Collect {
		mm.log = &trace.Log{}
		cfg.Trace = mm.log
	}
	if opts.Profile {
		mm.prof = obs.NewProfiler()
		cfg.Profile = mm.prof
	}
	cfg.Spans = opts.Spans
	// The flight recorder is always on: a fixed-size ring of recent
	// telemetry events per session, dumped into the report's fault block
	// when a run ends in a contained fault.
	mm.flight = telemetry.NewFlight(0)
	cfg.Flight = mm.flight
	if opts.Progress != nil {
		fn := opts.Progress
		cfg.Progress = func(hb core.Heartbeat) {
			fn(obs.Progress{Cycles: hb.Steps, SimNS: hb.SimNS, Inferences: hb.Inferences})
		}
		cfg.ProgressEvery = opts.ProgressEvery
	}
	mm.m = core.New(prog, cfg)
	return mm, nil
}

// AddClauses compiles additional clauses into the loaded program.
func (m *Machine) AddClauses(source string) error {
	return m.m.Program().AddSource("<added>", source)
}

// Solve runs a query; iterate the returned Solutions for the answers.
func (m *Machine) Solve(goal string) (*Solutions, error) {
	return m.m.Solve(goal)
}

// NextCtx returns the next PSI answer, honoring the context's deadline
// and cancellation. Errors carry an engine error class: use
// engine.ExitCode / engine.ClassName (or errors.Is against
// engine.ErrStepLimit etc.) to classify them.
func NextCtx(ctx context.Context, sols *Solutions) (map[string]*Term, bool, error) {
	return answer(sols.Run(ctx), sols.Err, sols.Bindings)
}

// BaselineNextCtx is NextCtx for the DEC-10 baseline.
func BaselineNextCtx(ctx context.Context, sols *BaselineSolutions) (map[string]*Term, bool, error) {
	return answer(sols.Run(ctx), sols.Err, sols.Bindings)
}

// answer converts a run's status into NextCtx's result.
func answer(st engine.Status, err func() error, bindings func() map[string]*Term) (map[string]*Term, bool, error) {
	switch st {
	case engine.Failed:
		return nil, false, err()
	case engine.Solution:
		return bindings(), true, nil
	}
	return nil, false, nil
}

// SetInterruptHandler installs a goal run on another process context
// whenever the program executes the interrupt/0 built-in (the machine
// must have been loaded with Options.Processes >= 2).
func (m *Machine) SetInterruptHandler(process int, goal string) error {
	g, err := parse.Term(goal)
	if err != nil {
		return err
	}
	q, err := m.m.Program().CompileQuery(g)
	if err != nil {
		return err
	}
	return m.m.SetInterruptHandler(process, q)
}

// TimeNS reports the simulated execution time in nanoseconds.
func (m *Machine) TimeNS() int64 { return m.m.TimeNS() }

// Inferences reports the logical inference count (for LIPS).
func (m *Machine) Inferences() int64 { return m.m.Inferences() }

// Steps reports the executed microcycle count.
func (m *Machine) Steps() int64 { return m.m.Stats().Steps }

// Stats exposes the full microcycle statistics.
func (m *Machine) Stats() *micro.Stats { return m.m.Stats() }

// AccountingMode reports "exact" while a per-cycle tap (Collect or
// Fault) receives every cycle and "fast" otherwise, also with Profile.
// Statistics are identical either way.
func (m *Machine) AccountingMode() string { return m.m.AccountingMode() }

// FlightEvents returns the flight recorder's retained telemetry events,
// oldest first — the session's recent runs and their outcomes,
// heartbeats and faults. The same events appear in the run report's
// fault block when a run ends in a contained fault.
func (m *Machine) FlightEvents() []telemetry.FlightEvent { return m.flight.Events() }

// CacheHitRatio reports the overall cache hit ratio (1 when the cache is
// disabled or untouched).
func (m *Machine) CacheHitRatio() float64 {
	if c := m.m.Cache(); c != nil {
		return c.HitRatio()
	}
	return 1
}

// Cache exposes the cache model (nil when disabled).
func (m *Machine) Cache() *cache.Cache { return m.m.Cache() }

// Trace returns the COLLECT trace (nil unless Options.Collect was set).
func (m *Machine) Trace() *trace.Log { return m.log }

// Profile resolves the simulated-workload profile collected so far (nil
// unless Options.Profile was set). Every micro-cycle is attributed to
// precisely one predicate, with query glue and runtime stubs under
// "<main>", so the profile's TotalCycles equals Stats().Steps exactly.
func (m *Machine) Profile(workload string) *obs.RunProfile {
	if m.prof == nil {
		return nil
	}
	return m.prof.Profile(m.m.Program(), workload)
}

// RunReport assembles the structured, stable-schema report of the run so
// far. host may be nil for fully deterministic output.
func (m *Machine) RunReport(workload string, host *obs.HostReport) *obs.RunReport {
	return obs.NewRunReport(m.m, workload, host)
}

// KLIPS reports the achieved logical inferences per second (in
// thousands) over the simulated time.
func (m *Machine) KLIPS() float64 {
	t := m.TimeNS()
	if t == 0 {
		return 0
	}
	return float64(m.Inferences()) / (float64(t) / 1e9) / 1000
}

// Report renders a human-readable summary of the run's dynamic
// characteristics, in the spirit of the paper's tables.
func (m *Machine) Report() string {
	s := m.m.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "steps %d, inferences %d, time %.3f ms, %.1f KLIPS\n",
		s.Steps, m.Inferences(), float64(m.TimeNS())/1e6, m.KLIPS())
	fmt.Fprintf(&b, "modules:")
	for mod := micro.Module(0); mod < micro.NumModules; mod++ {
		fmt.Fprintf(&b, " %s %.1f%%", mod, s.ModuleRatio(mod)*100)
	}
	fmt.Fprintln(&b)
	fmt.Fprintf(&b, "memory: %.1f%% of steps (read %.1f%%, write-stack %.1f%%, write %.1f%%)\n",
		(s.CacheOpRatio(micro.OpRead)+s.CacheOpRatio(micro.OpWrite)+s.CacheOpRatio(micro.OpWriteStack))*100,
		s.CacheOpRatio(micro.OpRead)*100, s.CacheOpRatio(micro.OpWriteStack)*100, s.CacheOpRatio(micro.OpWrite)*100)
	fmt.Fprintf(&b, "areas:")
	for k := word.AreaID(0); k < 5; k++ {
		fmt.Fprintf(&b, " %s %.1f%%", k, s.AreaAccessRatio(k)*100)
	}
	fmt.Fprintln(&b)
	if c := m.m.Cache(); c != nil {
		fmt.Fprintf(&b, "cache: %s, hit ratio %.2f%%\n", c.Config(), c.HitRatio()*100)
	}
	return b.String()
}

// ---- the DEC-10 baseline ------------------------------------------------

// Baseline is the compiled-code DEC-10 Prolog comparator of Table 1.
type Baseline struct {
	m    *dec10.Machine
	prog *dec10.Program
}

// BaselineSolutions enumerates baseline answers.
type BaselineSolutions = dec10.Solutions

// LoadBaseline compiles a program for the DEC-10 baseline engine.
func LoadBaseline(source string, out io.Writer) (*Baseline, error) {
	prog := dec10.NewProgram(nil)
	if err := prog.AddSource("<program>", source); err != nil {
		return nil, err
	}
	return &Baseline{
		m:    dec10.New(prog, dec10.Config{Out: out, MaxUnits: core.DefaultMaxSteps}),
		prog: prog,
	}, nil
}

// Solve runs a query on the baseline.
func (b *Baseline) Solve(goal string) (*BaselineSolutions, error) {
	return b.m.Solve(goal)
}

// SetMaxUnits adjusts the baseline's abort bound (0 = none).
func (b *Baseline) SetMaxUnits(n int64) { b.m.SetMaxUnits(n) }

// TimeNS reports the modelled DEC-2060 execution time.
func (b *Baseline) TimeNS() int64 { return b.m.TimeNS() }

// Calls reports the call/execute count.
func (b *Baseline) Calls() int64 { return b.m.Calls() }

// ---- term helpers ---------------------------------------------------------

// Term is the shared source-level term representation returned in answer
// bindings.
type Term = term.Term

// ParseTerm parses one Prolog term.
func ParseTerm(src string) (*Term, error) { return parse.Term(src) }

// DisasmPSI compiles source and renders the KL0 instruction code of one
// predicate.
func DisasmPSI(source, name string, arity int) (string, error) {
	prog := kl0.NewProgram(nil)
	if err := prog.AddSource("<program>", source); err != nil {
		return "", err
	}
	idx, ok := prog.LookupProc(name, arity)
	if !ok {
		return "", fmt.Errorf("psi: no predicate %s/%d", name, arity)
	}
	return prog.Disasm(idx), nil
}

// DisasmBaseline compiles source for the DEC-10 engine and renders one
// predicate's compiled code, including its indexing blocks.
func DisasmBaseline(source, name string, arity int) (string, error) {
	prog := dec10.NewProgram(nil)
	if err := prog.AddSource("<program>", source); err != nil {
		return "", err
	}
	idx, ok := prog.LookupProc(name, arity)
	if !ok {
		return "", fmt.Errorf("psi: no predicate %s/%d", name, arity)
	}
	return prog.Disasm(idx), nil
}
