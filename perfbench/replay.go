package main

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	psi "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/kl0"
	"repro/internal/obs"
	"repro/internal/parse"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// Span names of the serving replay, one per public call serve.execute
// makes, in call order. A job's layer sum is the sum of its top-level
// spans (everything but the compile children).
const (
	spJob     = "replay.job"
	spSpec    = "serve.ParseSpec"
	spCompile = "harness.CompileKeyed"
	spParse   = "parse.Clauses"
	spKL0Add  = "kl0.AddClauses"
	spKL0Q    = "kl0.CompileQuery"
	spOpen    = "harness.Compiled.Open"
	spNext    = "core.Session.Next"
	spEncode  = "serve.encode"
	spReport  = "obs.NewRunReport"
	spJSON    = "obs.report.JSON"
	spRelease = "harness.Live.Release"
)

var topLevel = []string{spSpec, spCompile, spOpen, spNext, spEncode, spReport, spJSON, spRelease}

// replayer runs serving jobs in this process through the calls
// serve.execute makes. Its compile cache follows psid's: content-keyed
// (JobSpec.Key), programCacheCap entries, least recently used evicted,
// and a program that fails to compile is not kept. On a miss it makes
// harness.CompileKeyed's own calls (parse.Clauses, kl0 AddClauses and
// CompileQuery) itself, so parse and kl0 time show as separate spans.
type replayer struct {
	tr   *tracer
	refs checker

	mu     sync.Mutex
	order  *list.List
	items  map[string]*list.Element
	calls  int64
	misses int64
	steps  atomic.Int64
	fastNS atomic.Int64 // Session.Next time of fast-mode runs
	fastSt atomic.Int64 // steps of fast-mode runs
	wrong  atomic.Value // first mismatch (string)
}

type cached struct {
	key  string
	once sync.Once
	c    *harness.Compiled
	err  error
}

func newReplayer(tr *tracer, refs checker) *replayer {
	return &replayer{tr: tr, refs: refs, order: list.New(), items: map[string]*list.Element{}}
}

// lookup returns the cache entry for key, creating it on a miss and
// evicting beyond capacity.
func (rp *replayer) lookup(key string) (*cached, bool) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.calls++
	if el, ok := rp.items[key]; ok {
		rp.order.MoveToFront(el)
		return el.Value.(*cached), true
	}
	rp.misses++
	e := &cached{key: key}
	rp.items[key] = rp.order.PushFront(e)
	for rp.order.Len() > programCacheCap {
		old := rp.order.Remove(rp.order.Back()).(*cached)
		delete(rp.items, old.key)
	}
	return e, false
}

func (rp *replayer) forget(key string) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if el, ok := rp.items[key]; ok {
		rp.order.Remove(el)
		delete(rp.items, key)
	}
}

// compile resolves a job's compiled program under span parent.
func (rp *replayer) compile(id int64, parent int, spec *serve.JobSpec) (*harness.Compiled, error) {
	e, _ := rp.lookup(spec.Key())
	e.once.Do(func() {
		src := spec.Program
		if spec.Stdlib {
			src = psi.StdLib + "\n" + spec.Program
		}
		prog := kl0.NewProgram(nil)
		sp := rp.tr.begin(id, spParse, parent)
		cs, err := parse.Clauses(spec.Workload, src)
		rp.tr.end(sp)
		if err != nil {
			e.err = err
			return
		}
		sp = rp.tr.begin(id, spKL0Add, parent)
		err = prog.AddClauses(cs)
		rp.tr.end(sp)
		if err != nil {
			e.err = err
			return
		}
		sp = rp.tr.begin(id, spKL0Q, parent)
		var q *kl0.Query
		g, err := parse.Term(spec.Query)
		if err == nil {
			q, err = prog.CompileQuery(g)
		}
		rp.tr.end(sp)
		e.c, e.err = &harness.Compiled{Prog: prog, Query: q, Procs: 1}, err
	})
	if e.err != nil {
		rp.forget(e.key)
		return nil, fmt.Errorf("%w: %v", engine.ErrMalformed, e.err)
	}
	return e.c, nil
}

// machineConfig mirrors the daemon's per-job machine configuration.
func machineConfig(spec *serve.JobSpec) core.Config {
	cfg := core.Config{MaxSteps: spec.Steps, Fast: spec.Engine == engine.ModeFast}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 4_000_000_000
	}
	if spec.Fault != "" {
		if plan, err := fault.Parse(spec.Fault); err == nil {
			cfg.Fault = plan.New()
		}
	}
	cfg.Flight = telemetry.NewFlight(0)
	return cfg
}

// run executes one job as job id and checks its outcome.
func (rp *replayer) run(id int64, j Job) {
	tr := rp.tr
	root := tr.begin(id, spJob, -1)
	defer tr.end(root)

	sp := tr.begin(id, spSpec, root)
	spec, err := serve.ParseSpec(bytes.NewReader(j.Body), serve.Defaults{})
	tr.end(sp)
	if err != nil {
		rp.mismatch(j, "spec rejected: "+err.Error())
		return
	}
	sp = tr.begin(id, spCompile, root)
	c, err := rp.compile(id, sp, spec)
	tr.end(sp)
	if err != nil {
		sp = tr.begin(id, spEncode, root)
		// The encoding cost is what is measured; the bytes are not sent.
		_, _ = json.Marshal(serve.ErrorDoc{Schema: serve.ErrorSchema, Status: 422, Class: "malformed", Error: err.Error()})
		tr.end(sp)
		rp.verify(j, engine.ClassName(err), nil, "")
		return
	}

	sp = tr.begin(id, spOpen, root)
	live, err := c.Open(machineConfig(spec))
	tr.end(sp)
	if err != nil {
		rp.mismatch(j, "open: "+err.Error())
		return
	}
	var runErr error
	var binding string
	t0 := time.Now()
	sp = tr.begin(id, spNext, root)
	st, err := live.Session.Next(context.Background())
	tr.end(sp)
	nextNS := time.Since(t0).Nanoseconds()
	runErr = err
	if err == nil && st == engine.Solution && spec.Stream {
		sp = tr.begin(id, spEncode, root)
		b := map[string]string{}
		for name, t := range live.Session.Bindings() {
			b[name] = t.String()
		}
		binding = b[j.Var]
		_, _ = json.Marshal(serve.StreamEvent{Event: "solution", N: 1, Bindings: b})
		tr.end(sp)
	}

	m := live.Machine
	sp = tr.begin(id, spReport, root)
	var hits, accesses int64
	if ch := m.Cache(); ch != nil {
		hits, accesses = ch.Total.Hits, ch.Total.Accesses
	}
	obs.RecordRun(m.Stats().Steps, m.Inferences(), hits, accesses, nextNS)
	rep := obs.NewRunReport(m, spec.Workload, nil)
	rep.SetTermination(runErr)
	if rep.Fault != nil {
		rep.Fault.Stack = ""
	}
	tr.end(sp)
	sp = tr.begin(id, spJSON, root)
	if spec.Stream {
		_, _ = json.Marshal(serve.StreamEvent{Event: "report", Report: rep})
	} else {
		_, _ = rep.JSON()
	}
	tr.end(sp)

	steps := m.Stats().Steps
	rp.steps.Add(steps)
	if m.AccountingMode() == engine.ModeFast && runErr == nil {
		rp.fastNS.Add(nextNS)
		rp.fastSt.Add(steps)
	}
	got := &reportDoc{Termination: rep.Termination, MicroCycles: rep.MicroCycles, SimulatedNS: rep.SimulatedNS, Inferences: rep.Inferences}

	sp = tr.begin(id, spRelease, root)
	live.Release()
	tr.end(sp)
	rp.verify(j, engine.ClassName(runErr), got, binding)
}

// verify checks a replayed job against its reference.
func (rp *replayer) verify(j Job, class string, rep *reportDoc, binding string) {
	e := rp.refs[string(j.Body)]
	switch {
	case class != e.Class:
		rp.mismatch(j, fmt.Sprintf("class %q, want %q", class, e.Class))
	case e.Ran && (rep == nil || rep.MicroCycles != e.Steps || rep.Inferences != e.Inferences || rep.SimulatedNS != e.TimeNS):
		rp.mismatch(j, "steps/inferences/time_ns differ from the reference")
	case j.Var != "" && binding != e.Binding:
		rp.mismatch(j, fmt.Sprintf("%s = %s, want %s", j.Var, binding, e.Binding))
	}
}

func (rp *replayer) mismatch(j Job, why string) {
	rp.wrong.CompareAndSwap(nil, j.Spec.Workload+": "+why)
}

// replay runs jobs in order on workers goroutines (job ids from base).
func (rp *replayer) replay(jobs []Job, workers int, base int64) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if int(i) >= len(jobs) {
					return
				}
				rp.run(base+i, jobs[i])
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// traceServing is the per-layer part of a traced serving run: replay the
// warm-up and timed jobs in this process at the daemon's width, and
// derive the layer metrics from the spans of one traced replay. The
// tracing overhead compares two untraced and two traced replays in
// ABBA order, so a drift in host speed cancels to first order.
func traceServing(cfg runConfig, r *servingRun, s sheet) error {
	workers := runtime.NumCPU()
	warm := r.plan.warm[setups-1]
	// replay runs the warm-up then the timed jobs; ms, when not nil,
	// receives the Go memory statistics around the timed jobs.
	replay := func(tr *tracer, ms *[2]runtime.MemStats) (*replayer, time.Duration, error) {
		rp := newReplayer(nil, r.refs)
		rp.replay(warm, workers, -int64(len(warm)))
		rp.tr = tr
		rp.calls, rp.misses = 0, 0
		rp.steps.Store(0)
		if ms != nil {
			runtime.ReadMemStats(&ms[0])
		}
		wall := rp.replay(r.plan.timed, workers, 0)
		if ms != nil {
			runtime.ReadMemStats(&ms[1])
		}
		if w, ok := rp.wrong.Load().(string); ok {
			return nil, 0, fmt.Errorf("replay: %s", w)
		}
		return rp, wall, nil
	}

	tr := newTracer()
	var ms [2]runtime.MemStats
	_, plainA, err := replay(nil, nil)
	if err != nil {
		return err
	}
	rp, tracedA, err := replay(tr, &ms)
	if err != nil {
		return err
	}
	_, tracedB, err := replay(newTracer(), nil)
	if err != nil {
		return err
	}
	_, plainB, err := replay(nil, nil)
	if err != nil {
		return err
	}

	n := len(r.plan.timed)
	tr.printSelfTable(fmt.Sprintf("per-layer self time, %s replay of %d timed jobs on %d workers", cfg.workload, n, workers))
	path, err := tr.writeChrome(buildDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err != nil {
		return err
	}
	fmt.Printf("chrome trace: %s (%d spans)\n", path, tr.log.Len())

	durs := tr.durations()
	layerSum := tr.perJob(topLevel...)
	lat, late := r.latencies()
	over := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if l := lat[i]; !math.IsInf(l, 1) {
			over = append(over, l-float64(layerSum[int64(i)])/1e6)
		}
	}
	kl0PerJob := tr.perJob(spKL0Add, spKL0Q)
	var kl0 []time.Duration
	for _, d := range kl0PerJob {
		kl0 = append(kl0, d)
	}
	report := tr.perJob(spReport, spJSON)
	var reps []time.Duration
	for _, d := range report {
		reps = append(reps, d)
	}

	fmt.Println("per-layer:")
	s.set("serve.overhead_ms_p50", median(over), "ms", "untraced job latency minus the replay's layer sum: admission, queueing, HTTP")
	s.set("serve.queue_depth_max", float64(r.depthMax), "count", "sampled from /healthz every 10ms")
	s.set("serve.rejected", float64(r.health.Rejected), "count", "psid /healthz")
	s.set("client.retries", float64(r.retries), "count", "internal/client")
	s.set("serve.spec_parse_us_p50", p50(durs[spSpec], time.Microsecond), "us", "")
	s.set("compile.calls", float64(rp.calls), "count", "")
	s.set("compile.misses", float64(rp.misses), "count", "")
	s.set("compile.hit_ratio", 1-float64(rp.misses)/float64(rp.calls), "share", "")
	s.set("parse.ms_p50", p50(durs[spParse], time.Millisecond), "ms", fmt.Sprintf("n=%d misses", len(durs[spParse])))
	s.set("kl0.ms_p50", p50(kl0, time.Millisecond), "ms", "AddClauses + CompileQuery per miss")
	s.set("pool.open_ms_p50", p50(durs[spOpen], time.Millisecond), "ms", "")
	s.set("pool.release_us_p50", p50(durs[spRelease], time.Microsecond), "us", "")
	if st := rp.fastSt.Load(); st > 0 {
		s.set("core.fast_ns_per_step", float64(rp.fastNS.Load())/float64(st), "ns", "Session.Next time / Stats().Steps, fast-mode ok runs")
	}
	s.set("core.steps", float64(rp.steps.Load()), "count", "simulated steps of the timed jobs; repeats exactly per seed")
	s.set("obs.report_us_p50", p50(reps, time.Microsecond), "us", "NewRunReport + JSON")
	s.set("go.gc_pause_ms_total", float64(ms[1].PauseTotalNs-ms[0].PauseTotalNs)/1e6, "ms", "traced replay")
	s.set("go.alloc_mb_per_job", float64(ms[1].TotalAlloc-ms[0].TotalAlloc)/float64(n)/(1<<20), "MB", "traced replay")
	lateP95 := percentile(late, 0.95)
	s.set("loadgen.late_ms_p95", lateP95.Value, "ms", fmt.Sprintf("n=%d; generator validity, not a program metric", lateP95.N))
	traced, plain := (tracedA+tracedB).Seconds()/2, (plainA+plainB).Seconds()/2
	s.set("bench.trace_overhead_s", traced-plain, "s",
		fmt.Sprintf("traced replays %.3fs - untraced replays %.3fs, ABBA means", traced, plain))
	return nil
}
