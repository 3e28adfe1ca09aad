package serve

import (
	"context"
	"fmt"
	"time"

	psi "repro"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/telemetry"
)

// source is the effective program text: the standard library prepended
// when requested, in the psi CLI's order.
func (s *JobSpec) source() string {
	if s.Stdlib {
		return psi.StdLib + "\n" + s.Program
	}
	return s.Program
}

// benchmark is the job as the image cache sees it: the effective source
// and query under the job's workload label.
func (s *JobSpec) benchmark() progs.Benchmark {
	return progs.Benchmark{Name: s.Workload, Source: s.source(), Query: s.Query}
}

// machineConfig assembles the core configuration for one job the way
// psi.LoadProgram does (step bound, cache geometry, fault injector,
// always-on flight recorder) so a pooled machine dressed with it
// behaves bit-identically to the machine the psi CLI builds.
func (s *JobSpec) machineConfig() core.Config {
	cfg := core.Config{MaxSteps: s.Steps}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = core.DefaultMaxSteps
	}
	if c := s.Cache; c != nil {
		cfg.NoCache = c.Disable
		cfg.Cache = cache.PSIWith(c.Words, c.Sets, c.StoreThrough)
	}
	if s.Fault != "" {
		// Validated by ParseSpec; each run arms a fresh injector so
		// concurrent identical jobs never share mutable fault state.
		if plan, err := fault.Parse(s.Fault); err == nil {
			cfg.Fault = plan.New()
		}
	}
	cfg.Flight = telemetry.NewFlight(0)
	return cfg
}

// jobResult is one finished run: the report (always assembled, its
// termination field recording how the run ended), the classified run
// error (nil = ok) and the solutions delivered.
type jobResult struct {
	report    *obs.RunReport
	runErr    error
	solutions int
}

// bindingsFor renders a solution's bindings as source-level term text,
// sorted by variable name at the JSON layer (Go maps marshal with
// sorted keys).
func bindingsFor(sess engine.Session) map[string]string {
	b := sess.Bindings()
	if len(b) == 0 {
		return nil
	}
	out := make(map[string]string, len(b))
	for name, t := range b {
		out[name] = t.String()
	}
	return out
}

// execute compiles (through the shared image cache) and runs one job
// on a pooled machine. emit, when non-nil, receives each solution as it
// is found and may return an error to abort the enumeration (a gone
// streaming client); hb, when non-nil, receives the machine's heartbeats
// every spec.HeartbeatCycles simulated cycles. A non-nil error return
// means the job never ran (a compile or setup failure, classified under
// the engine taxonomy); run-level failures land in jobResult.runErr with
// the report assembled around them.
func (s *Server) execute(ctx context.Context, spec *JobSpec, emit func(n int, bindings map[string]string) error, hb func(core.Heartbeat)) (*jobResult, error) {
	c, err := harness.Compile(spec.benchmark())
	if err != nil {
		// A program that does not compile is malformed by class: the
		// 4xx contract for bad submissions.
		return nil, fmt.Errorf("%w: %v", engine.ErrMalformed, err)
	}
	cfg := spec.machineConfig()
	if spec.HeartbeatCycles > 0 && hb != nil {
		cfg.Progress = hb
		cfg.ProgressEvery = spec.HeartbeatCycles
	}
	live, err := c.Open(cfg)
	if err != nil {
		return nil, err
	}
	defer live.Release()

	var host *obs.HostReport
	hostBefore := obs.ReadHostStats()
	wallStart := time.Now()

	res := &jobResult{}
	for {
		st, err := live.Session.Next(ctx)
		if err != nil {
			res.runErr = err
			break
		}
		if st != engine.Solution {
			break
		}
		res.solutions++
		if emit != nil {
			if err := emit(res.solutions, bindingsFor(live.Session)); err != nil {
				res.runErr = engine.CtxError(context.Canceled)
				break
			}
		}
		if !spec.All {
			break
		}
		if spec.Limit > 0 && res.solutions >= spec.Limit {
			break
		}
	}

	if spec.HostStats {
		host = hostBefore.Delta(obs.ReadHostStats(), time.Since(wallStart).Nanoseconds())
	}
	m := live.Machine
	var cacheHits, cacheAccesses int64
	if ch := m.Cache(); ch != nil {
		cacheHits, cacheAccesses = ch.Total.Hits, ch.Total.Accesses
	}
	obs.RecordRun(m.Stats().Steps, m.Inferences(), cacheHits, cacheAccesses,
		time.Since(wallStart).Nanoseconds())

	rep := obs.NewRunReport(m, spec.Workload, host)
	rep.SetTermination(res.runErr)
	if rep.Fault != nil && !spec.DebugStack {
		// Go stacks carry goroutine ids; strip them so byte-identical
		// jobs keep byte-identical reports even on the fault path.
		rep.Fault.Stack = ""
	}
	res.report = rep
	return res, nil
}
