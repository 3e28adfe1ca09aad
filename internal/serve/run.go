package serve

import (
	"container/list"
	"context"
	"fmt"
	"sync"
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

// execute compiles (through the bounded program cache) and runs one job
// on a pooled machine. emit, when non-nil, receives each solution as it
// is found and may return an error to abort the enumeration (a gone
// streaming client); hb, when non-nil, receives the machine's heartbeats
// every spec.HeartbeatCycles simulated cycles. A non-nil error return
// means the job never ran (a compile or setup failure, classified under
// the engine taxonomy); run-level failures land in jobResult.runErr with
// the report assembled around them.
func (s *Server) execute(ctx context.Context, spec *JobSpec, emit func(n int, bindings map[string]string) error, hb func(core.Heartbeat)) (*jobResult, error) {
	c, err := s.programs.compiled(spec)
	if err != nil {
		return nil, err
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

// ---- bounded compiled-program cache --------------------------------------

// programLRU bounds the process-wide compiled-program cache for
// submitted jobs: harness.CompileKeyed still deduplicates and shares
// images, the LRU decides which keys stay resident. The Table-1 corpus
// comfortably fits any reasonable capacity; the bound exists for the
// unbounded stream of distinct programs a public endpoint sees.
type programLRU struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are keys
	items map[string]*list.Element
}

func newProgramLRU(capacity int) *programLRU {
	return &programLRU{
		cap:   capacity,
		order: list.New(),
		items: map[string]*list.Element{},
	}
}

// compiled resolves the job's compiled image, compiling at most once per
// content key and evicting the least-recently-used image beyond the cap.
func (l *programLRU) compiled(spec *JobSpec) (*harness.Compiled, error) {
	key := spec.Key()
	l.touch(key)
	c, err := harness.CompileKeyed(key, progs.Benchmark{
		Name:   spec.Workload,
		Source: spec.source(),
		Query:  spec.Query,
	})
	if err != nil {
		l.forget(key)
		// A program that does not compile is malformed by class: the
		// 4xx contract for bad submissions.
		return nil, fmt.Errorf("%w: %v", engine.ErrMalformed, err)
	}
	return c, nil
}

// touch marks a key used, evicting the coldest entries beyond capacity.
func (l *programLRU) touch(key string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.items[key]; ok {
		l.order.MoveToFront(el)
		return
	}
	l.items[key] = l.order.PushFront(key)
	for l.order.Len() > l.cap {
		oldest := l.order.Back()
		l.order.Remove(oldest)
		old := oldest.Value.(string)
		delete(l.items, old)
		harness.Evict(old)
	}
}

// forget drops a key that failed to compile so a corrected resubmission
// is not charged an LRU slot for the broken image.
func (l *programLRU) forget(key string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.items[key]; ok {
		l.order.Remove(el)
		delete(l.items, key)
	}
	harness.Evict(key)
}

// Len reports the resident program count (for tests and metrics).
func (l *programLRU) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.order.Len()
}
