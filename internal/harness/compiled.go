package harness

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dec10"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/kl0"
	"repro/internal/micro"
	"repro/internal/obs"
	"repro/internal/parse"
	"repro/internal/progs"
	"repro/internal/telemetry"
	"repro/internal/term"
	"repro/internal/trace"
)

// Compiled holds the shared artifacts of one benchmark: the compiled KL0
// program with its queries, and (lazily) the compiled DEC-10 baseline.
// The KL0 image is read-only after Compile returns — every machine of
// every table cell runs the same code image at the same heap addresses,
// which is what makes the parallel harness byte-identical to the serial
// one. The DEC-10 image is compiled once too, but machines receive
// private Snapshots because that engine appends stub code at run time.
type Compiled struct {
	Prog    *kl0.Program
	Query   *kl0.Query
	Handler *kl0.Query // interrupt-handler goal for process 1, or nil
	Procs   int

	name string
	qsrc string

	decOnce sync.Once
	decProg *dec10.Program
	decQ    *dec10.Query
	decErr  error
}

// imageCap bounds the compiled-image cache. The evaluation corpus needs
// a small fraction of it; the bound is for the serving layer's unbounded
// stream of distinct submitted programs.
const imageCap = 256

// image is one cache entry. Concurrent callers of its key block on one
// compile through once.
type image struct {
	key  string
	once sync.Once
	c    *Compiled
	err  error
}

// images is the process-wide compiled-image cache: content key -> entry,
// the least recently used entry evicted beyond imageCap. Machines already
// running an evicted image keep their reference.
var images = struct {
	mu    sync.Mutex
	order list.List // front = most recently used; values are *image
	byKey map[string]*list.Element
}{byKey: map[string]*list.Element{}}

// Key is a benchmark's compiled-image cache key: a hash of every field
// the compiler reads (source, query, handler goal and process count), so
// two benchmarks share an image exactly when they would compile to the
// same one. The label (Name) is not part of it.
func Key(b progs.Benchmark) string {
	procs := b.Processes
	if procs == 0 {
		procs = 1
	}
	h := sha256.New()
	for _, f := range [...]string{b.Source, b.Query, b.Handler, strconv.Itoa(procs)} {
		io.WriteString(h, f)
		h.Write(keySep)
	}
	var sum [sha256.Size]byte
	var text [32]byte
	hex.Encode(text[:], h.Sum(sum[:0])[:16])
	return string(text[:])
}

var keySep = []byte{0}

// Compile parses and compiles a benchmark at most once while its image
// stays resident, returning the shared artifacts. Concurrent callers for
// the same content block on one compile. The image carries the label of
// the benchmark that compiled it, for error texts and spans.
func Compile(b progs.Benchmark) (*Compiled, error) {
	return compiled(Key(b), b)
}

// compiled is Compile under a precomputed key. A failed compile does not
// stay resident, so a resubmission compiles afresh.
func compiled(key string, b progs.Benchmark) (*Compiled, error) {
	e := lookup(key)
	e.once.Do(func() { e.c, e.err = compileBenchmark(b) })
	if e.err != nil {
		drop(e)
	}
	return e.c, e.err
}

// lookup returns key's entry, creating it on a miss, marks it most
// recently used and evicts the coldest entries beyond imageCap.
func lookup(key string) *image {
	images.mu.Lock()
	defer images.mu.Unlock()
	if el, ok := images.byKey[key]; ok {
		images.order.MoveToFront(el)
		return el.Value.(*image)
	}
	e := &image{key: key}
	images.byKey[key] = images.order.PushFront(e)
	for images.order.Len() > imageCap {
		old := images.order.Remove(images.order.Back()).(*image)
		delete(images.byKey, old.key)
	}
	return e
}

// drop removes e from the cache if it is still the entry of its key.
func drop(e *image) {
	images.mu.Lock()
	defer images.mu.Unlock()
	if el, ok := images.byKey[e.key]; ok && el.Value == e {
		images.order.Remove(el)
		delete(images.byKey, e.key)
	}
}

// Resident reports how many compiled images the cache holds.
func Resident() int {
	images.mu.Lock()
	defer images.mu.Unlock()
	return images.order.Len()
}

// compileBenchmark reads the program and its queries into one pooled
// term arena and compiles them from it.
func compileBenchmark(b progs.Benchmark) (*Compiled, error) {
	a := term.GetArena()
	defer a.Release()
	prog := kl0.NewProgram(nil)
	cs, err := parse.Read(a, b.Name, b.Source)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	if err := prog.Compile(a, cs); err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	procs := b.Processes
	if procs == 0 {
		procs = 1
	}
	c := &Compiled{Prog: prog, Procs: procs, name: b.Name, qsrc: b.Query}
	// The handler query is compiled before the main query, the order the
	// serial harness used. Code offsets decide heap addresses and hence
	// cache behaviour, so this order is part of the published numbers.
	if b.Handler != "" {
		hg, err := parse.ReadGoal(a, b.Handler)
		if err != nil {
			return nil, err
		}
		if c.Handler, err = prog.CompileGoal(a, hg); err != nil {
			return nil, fmt.Errorf("%s handler: %w", b.Name, err)
		}
	}
	g, err := parse.ReadGoal(a, b.Query)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	if c.Query, err = prog.CompileGoal(a, g); err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	return c, nil
}

// DEC returns a private snapshot of the compiled DEC-10 baseline of src,
// the benchmark's program text, and its precompiled query. The base
// image is compiled on first use (most tables never touch the DEC side);
// the KL0 image keeps no source text, so the caller supplies it.
func (c *Compiled) DEC(src string) (*dec10.Program, *dec10.Query, error) {
	c.decOnce.Do(func() {
		prog := dec10.NewProgram(nil)
		if err := prog.AddSource(c.name, src); err != nil {
			c.decErr = fmt.Errorf("%s: %w", c.name, err)
			return
		}
		g, err := parse.Term(c.qsrc)
		if err != nil {
			c.decErr = fmt.Errorf("%s: %w", c.name, err)
			return
		}
		q, err := prog.CompileQueryHandle(g)
		if err != nil {
			c.decErr = fmt.Errorf("%s: %w", c.name, err)
			return
		}
		c.decProg, c.decQ = prog, q
	})
	if c.decErr != nil {
		return nil, nil, c.decErr
	}
	return c.decProg.Snapshot(), c.decQ, nil
}

// Run executes the compiled benchmark on a machine from the pool and
// demands the first solution, like RunPSI. The caller owns the returned
// run and should Release it once done with the machine.
func (c *Compiled) Run(collect bool, feat core.Features) (*PSIRun, error) {
	return c.run(runOpts{collect: collect, feat: feat})
}

// runOpts carries the observability extras of one run alongside the
// classic (collect, features) pair. The zero value reproduces Run.
type runOpts struct {
	collect  bool
	access   micro.AccessSink // memory-access feed, e.g. pmms sweepers
	feat     core.Features
	cell     string             // evaluation cell label for heartbeats
	progress func(obs.Progress) // nil = no heartbeats
	every    int64              // heartbeat period in cycles (0 = default)
	profile  micro.ProfileSink  // per-predicate attribution sink
	ctx      context.Context    // deadline/cancel bound (nil = unbounded)
	maxSteps int64              // step bound override (0 = harness default)
	fault    *fault.Plan        // fault-injection plan (nil = no injection)
	spans    *telemetry.SpanLog // Step-slice span log (nil = no tracing)
	spanTID  int64              // trace row for this run's spans
}

func (c *Compiled) run(ro runOpts) (*PSIRun, error) {
	steps := ro.maxSteps
	if steps <= 0 {
		steps = core.DefaultMaxSteps
	}
	cfg := core.Config{MaxSteps: steps, Features: ro.feat}
	if ro.fault != nil {
		label := ro.cell
		if label == "" {
			label = c.name
		}
		if ro.fault.Matches(label) {
			// Each matching run gets a fresh injector from the shared
			// plan: injection state is per-machine, so parallel cells
			// never share mutable fault state.
			cfg.Fault = ro.fault.New()
		}
	}
	var log *trace.Log
	if ro.collect {
		log = &trace.Log{}
		cfg.Trace = log
	}
	// The access feed sees the identical access stream COLLECT would log —
	// a sweep fed through it computes exactly what a replay of the
	// materialized trace computes, without the O(trace) allocation and
	// without a per-cycle tap.
	cfg.Access = ro.access
	cfg.Profile = ro.profile
	if ro.spans != nil {
		cfg.Spans = ro.spans
		cfg.SpanName = ro.cell
		if cfg.SpanName == "" {
			cfg.SpanName = c.name
		}
		cfg.SpanTID = ro.spanTID
	}
	if ro.progress != nil {
		cell := ro.cell
		fn := ro.progress
		cfg.Progress = func(hb core.Heartbeat) {
			fn(obs.Progress{Cell: cell, Cycles: hb.Steps, SimNS: hb.SimNS, Inferences: hb.Inferences})
		}
		cfg.ProgressEvery = ro.every
	}
	live, err := c.Open(cfg)
	if err != nil {
		return nil, err
	}
	m := live.Machine
	start := time.Now()
	if st, err := live.Session.Next(ro.ctx); st != engine.Solution {
		live.Release()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		return nil, fmt.Errorf("%s: query %q failed", c.name, c.qsrc)
	}
	var cacheHits, cacheAccesses int64
	if ch := m.Cache(); ch != nil {
		cacheHits, cacheAccesses = ch.Total.Hits, ch.Total.Accesses
	}
	obs.RecordRun(m.Stats().Steps, m.Inferences(), cacheHits, cacheAccesses,
		time.Since(start).Nanoseconds())
	return &PSIRun{Machine: m, Trace: log}, nil
}

// ---- machine pool --------------------------------------------------------

// Machines are pooled by process count (the only shape parameter fixed
// at construction); Reset re-dresses a pooled machine for any program
// and configuration. Resetting reuses the machine's memory areas and
// cache arrays, so a pooled machine behaves bit-identically to a fresh
// one while skipping the large allocations.
var (
	poolMu       sync.Mutex
	machinePools = map[int]*sync.Pool{}
)

func poolFor(procs int) *sync.Pool {
	poolMu.Lock()
	defer poolMu.Unlock()
	p := machinePools[procs]
	if p == nil {
		p = &sync.Pool{}
		machinePools[procs] = p
	}
	return p
}

func acquireMachine(prog *kl0.Program, cfg core.Config) *core.Machine {
	procs := cfg.Processes
	if procs <= 0 {
		procs = 1
	}
	p := poolFor(procs)
	for {
		v := p.Get()
		if v == nil {
			return core.New(prog, cfg)
		}
		if m := v.(*core.Machine); m.Reset(prog, cfg) {
			return m
		}
	}
}

func releaseMachine(m *core.Machine) {
	if m == nil {
		return
	}
	poolFor(m.Processes()).Put(m)
}

// Release returns the run's machine to the machine pool. The machine
// (and anything reached through it, like its cache model) must not be
// used afterwards; the trace, if any, stays valid.
func (r *PSIRun) Release() {
	if r == nil || r.Machine == nil {
		return
	}
	releaseMachine(r.Machine)
	r.Machine = nil
}
