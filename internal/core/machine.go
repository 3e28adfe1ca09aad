// Package core implements the paper's primary contribution: the PSI
// microprogrammed KL0 interpreter. It executes the machine-resident
// instruction code produced by package kl0 on top of the simulated memory
// hierarchy (areas + address translation + cache), the 1K-word work file
// with its frame and trail buffers, and the microengine accounting that
// yields the paper's Tables 1-7 and Figure 1.
//
// The execution model is the DEC-10-style structure-sharing interpreter
// the PSI firmware implements: four stacks (local, global, control,
// trail) per process plus a shared heap holding instruction code and heap
// vectors; 10-word control frames for both environments and choice
// points; molecules (skeleton + global frame pairs) for compound terms;
// tail-recursion optimization backed by the two work-file frame buffers.
package core

import (
	stdcontext "context"
	"fmt"
	"io"
	"math"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/kl0"
	"repro/internal/mem"
	"repro/internal/micro"
	"repro/internal/telemetry"
	"repro/internal/wf"
	"repro/internal/word"
)

// DefaultMaxSteps is the step bound a run gets when its caller sets
// none: far above any evaluation workload, low enough to stop a runaway
// program. The psi library, the evaluation harness and the daemon all
// apply it, so their reports for the same job agree.
const DefaultMaxSteps = 4_000_000_000

// Config selects the machine configuration for a run.
type Config struct {
	// Cache is the cache geometry; the zero value selects the PSI's 8K
	// two-way store-in cache.
	Cache cache.Config
	// NoCache disables the cache: every memory access pays the full
	// main-memory latency. Used for the Figure 1 improvement baseline.
	NoCache bool
	// Processes is the number of process contexts (>= 1). The heap is
	// shared; each process has its own four stack areas.
	Processes int
	// Out receives output from write/1 and nl/0. Defaults to io.Discard.
	Out io.Writer
	// Trace, when non-nil, receives every executed microcycle (the
	// COLLECT hook). If it also implements micro.PredTracker it receives
	// the predicate-context switches, and if it implements
	// micro.MissSink, one CacheMiss per missing memory cycle — which is
	// how a per-cycle reference profiler rides it. It is a per-cycle tap:
	// see AccountingMode.
	Trace micro.Sink
	// Profile, when non-nil, is charged the cycles, memory accesses and
	// cache misses of each predicate at every predicate switch and at
	// each Solutions.Run boundary — the simulated-workload profiler
	// hook. The charges are exact (they sum to Stats().Steps and the
	// cache counters at every boundary) and it is not a per-cycle tap:
	// AccountingMode stays fast.
	Profile micro.ProfileSink
	// Access, when non-nil, receives every memory access (cache command
	// and logical address) after the machine's own cache probe, and
	// nothing for register-only cycles — the feed the PMMS sweeps read.
	// If it also implements micro.PredTracker it receives the
	// predicate-context switches the profiler sees. Not a per-cycle tap:
	// register-only cycles keep the fast tick, and AccountingMode stays
	// fast.
	Access micro.AccessSink
	// Progress, when non-nil, receives a heartbeat every ProgressEvery
	// executed microcycles (live-progress events for long simulations).
	Progress func(Heartbeat)
	// ProgressEvery is the heartbeat period in microcycles
	// (0 = DefaultProgressEvery).
	ProgressEvery int64
	// MaxSteps aborts runaway executions (0 = no limit; the CLIs, the
	// harness and the daemon default to DefaultMaxSteps).
	MaxSteps int64
	// Fast is ignored. The machine has a single cycle-accounting path
	// (see fastacct.go), and no attachment chooses between profilers;
	// the field remains so existing callers compile.
	Fast bool
	// Spans, when non-nil, records a host-time span for every
	// Solutions.Run (Chrome trace-event export; see -trace-out).
	Spans *telemetry.SpanLog
	// SpanName labels the run spans (e.g. the workload); "" = "step".
	SpanName string
	// SpanTID is the trace row the run spans render on.
	SpanTID int64
	// Flight, when non-nil, is the session flight recorder: runs and
	// their outcomes, heartbeats and faults land in its ring, and fault
	// reports dump it as a post-mortem. Not a per-cycle tap.
	Flight *telemetry.Flight
	// Features selects machine-feature ablations and the PSI-II
	// extensions.
	Features Features
	// Fault, when non-nil, is a seeded fault injector wired into the
	// memory, cache, work-file and trace models. Detected faults panic
	// with *fault.Check and are contained at the Solutions.Run boundary
	// as engine.ErrFault. Its trace-FIFO hook makes it a per-cycle tap.
	Fault *fault.Injector
}

// Features switches individual hardware features of the machine off (for
// the ablation studies of the design choices the paper evaluates) or
// enables the PSI-II redesign features its conclusion announces.
type Features struct {
	// NoFrameBuffers disables the work-file local-frame buffers: local
	// frames live on the local stack only.
	NoFrameBuffers bool
	// NoCtrlBuffers disables the work-file residency of the newest
	// environment and choice point: control frames are written straight
	// to the control stack.
	NoCtrlBuffers bool
	// NoLCO disables the tail-recursion (last-call) optimization.
	NoLCO bool
	// NoWriteStack demotes the dedicated Write-Stack cache command to a
	// plain write (with block read-in on miss).
	NoWriteStack bool
	// NoTrailBuffer disables the work-file trail staging buffer.
	NoTrailBuffer bool
	// Indexing enables PSI-II-style first-argument clause selection (the
	// "instruction code suitable for the compile time optimization" the
	// paper's conclusion announces): calls with a bound first argument
	// dispatch through an index instead of trying every clause.
	Indexing bool
}

// stack-offset base: offset 0 is reserved so that address 0 can mean
// "none" in control registers.
const stackBase = 16

// frameBuf describes one work-file frame buffer.
type frameBuf struct {
	base  uint32 // local stack offset of the buffered frame
	size  int
	valid bool
}

// context is the full execution state of one process.
type context struct {
	// Area ids.
	global, local, control, trail word.AreaID
	// Stack tops (offsets).
	localTop, globalTop, controlTop, trailTop uint32
	// Registers.
	code word.Addr // next instruction word
	e    word.Addr // current environment (0 = none)
	lf   word.Addr // current local frame base (0 = none)
	gf   word.Addr // current global frame base (0 = none)
	b    word.Addr // newest choice point (0 = none)
	// Trail watermarks of the newest choice point (HB registers).
	lMark, gMark uint32
	// Work-file frame buffers (per process conceptually; the hardware has
	// one set, so switching processes flushes them — modelled in
	// switchContext).
	buf    [2]frameBuf
	curBuf int
	// Work-file control-frame buffers: the newest environment and the
	// newest choice point live in the WF state area until superseded.
	envBuf ctrlBuf
	cpBuf  ctrlBuf
	// Trail buffer fill (entries buffered in the WF on top of trailTop).
	trailBuf int
}

// Machine is one PSI machine instance. It is not safe for concurrent use.
type Machine struct {
	prog   *kl0.Program
	loaded int // words of prog.Code already copied into the heap
	// ownProg reports that prog is the machine's private copy (see
	// ownProgram); until then prog may be shared with other machines.
	ownProg bool
	// argRegs holds the arguments of the goal being dispatched:
	// fetchGoalArgs loads them, and they are dead once the selected
	// clause's head unification returns, so calls and retries reuse
	// this storage instead of allocating.
	argRegs [kl0.MaxArity]val

	mem   *mem.Memory
	cache *cache.Cache
	wf    *wf.File
	out   io.Writer

	stats micro.Stats
	// fastTab is the deferred-accounting signature table (see
	// fastacct.go). Allocated in New and kept across Reset; always fully
	// drained (all-zero) outside a running Solutions.Run. A pointer to
	// a fixed-size array, so the hashed slot index needs no bounds check.
	fastTab *[fastTabSize]fastSlot
	// abort is an abort due at a memory cycle's boundary (a step limit
	// or a trace-FIFO fault), held until the cycle's access has reached
	// the cache: see fastBoundary.
	abort any
	// tap receives every executed cycle, rebuilt as a micro.Cycle: the
	// Config.Trace sink (nil when none is attached). tapPred and
	// missSink are its optional predicate-tracking and miss halves.
	tap      micro.Sink
	tapPred  micro.PredTracker
	missSink micro.MissSink

	// Simulated-workload profiling state: the profile sink (nil unless
	// profiling) and the predicate the code pointer currently executes
	// in.
	profile micro.ProfileSink
	curPred int
	// The Steps, memory-access and miss counts already charged to the
	// profile (see charge).
	chargedSteps, chargedAccesses, chargedMiss int64

	// Memory-access feed: the access sink (nil unless armed) and its
	// optional predicate-tracking half.
	access     micro.AccessSink
	accessPred micro.PredTracker
	// trackPred reports that some attachment attributes by predicate
	// (the profiler, the trace's or the access sink's tracker), so
	// instruction dispatch keeps curPred current.
	trackPred bool

	// Live-progress state: hb is the heartbeat callback (nil when
	// disabled), hbEvery the period in cycles, hbAt the Steps value of
	// the next heartbeat.
	hb      func(Heartbeat)
	hbEvery int64
	hbAt    int64

	// Context-poll state: poll is the cancelable context of the running
	// Solutions.Run (nil when none is armed), pollAt the Steps value of
	// the next poll (see armPoll).
	poll   stdcontext.Context
	pollAt int64

	// Telemetry attachments: run spans and the session flight
	// recorder (see run.go).
	spans    *telemetry.SpanLog
	spanName string
	spanTID  int64
	flight   *telemetry.Flight

	// noCacheStall accumulates memory latency when the cache is disabled.
	noCacheStall int64

	ctxs []context
	cur  int
	ctx  *context

	heapTop uint32 // heap allocation pointer (code, then heap vectors)

	inferences int64
	maxSteps   int64
	// stepStop is the event-boundary sentinel: the largest Steps value
	// needing no attention — min over the step limit, the next
	// heartbeat and the next context poll (MaxInt64 with none armed;
	// pinned below every Steps value while a per-cycle tap is armed), so
	// the per-cycle check is one branch-free compare. Kept by fastStop;
	// crossing it dispatches through fastBoundary.
	stepStop int64
	// memStop is the sentinel memory cycles compare against: stepStop,
	// or 0 while an access sink is armed, so every memory cycle — and
	// only memory cycles — take memCycleSlow, which delivers the access.
	memStop int64

	// failed marks that the current path failed and the main loop must
	// backtrack; kept on the machine so deep failure chains stay
	// iterative.
	failed bool

	// redoBarrier carries the pre-call choice point across the redo
	// path: a retried clause's cut barrier is the B value from before
	// the call, not the call's own (still live) choice point.
	redoBarrier word.Addr

	// forceTrail makes every binding below the base watermarks trailed
	// even with no live choice point — findall/3 must be able to undo
	// its sub-execution completely.
	forceTrail           bool
	baseLMark, baseGMark uint32

	// feat holds the machine-feature configuration.
	feat Features

	// interrupt handler: a compiled query run on another process context.
	intrQuery   *kl0.Query
	intrProcess int

	// inj is the fault injector (nil outside chaos runs). It is armed
	// only inside Solutions.Run so every injected fault surfaces within
	// the containment boundary.
	inj *fault.Injector

	halted bool
}

// New builds a machine for a compiled program.
func New(prog *kl0.Program, cfg Config) *Machine {
	if cfg.Processes <= 0 {
		cfg.Processes = 1
	}
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	m := &Machine{
		prog:    prog,
		mem:     mem.New(cfg.Processes),
		wf:      wf.New(),
		out:     cfg.Out,
		fastTab: new([fastTabSize]fastSlot),
		feat:    cfg.Features,
	}
	if !cfg.NoCache {
		cc := cfg.Cache
		if cc.Words == 0 {
			cc = cache.PSI
		}
		m.cache = cache.New(cc)
	}
	m.configureSinks(cfg)
	m.ctxs = make([]context, cfg.Processes)
	for p := range m.ctxs {
		m.ctxs[p] = context{
			global:     word.StackArea(p, word.AreaGlobal),
			local:      word.StackArea(p, word.AreaLocal),
			control:    word.StackArea(p, word.AreaControl),
			trail:      word.StackArea(p, word.AreaTrail),
			localTop:   stackBase,
			globalTop:  stackBase,
			controlTop: stackBase,
			trailTop:   stackBase,
		}
	}
	m.ctx = &m.ctxs[0]
	m.load()
	return m
}

// Reset returns the machine to its post-New state for a (possibly
// different) program and configuration, reusing the memory areas, work
// file and cache storage already allocated. It reports false when the
// machine cannot be reused (the process count differs, so the memory
// areas are shaped wrong) — the caller should allocate a fresh machine.
//
// A reset machine behaves bit-identically to a freshly built one: the
// memory translation table, cache contents and all statistics are
// cleared, so simulated times and cache hit patterns do not depend on
// what the machine ran before. This is what makes sync.Pool reuse safe
// for regenerating published numbers.
func (m *Machine) Reset(prog *kl0.Program, cfg Config) bool {
	if cfg.Processes <= 0 {
		cfg.Processes = 1
	}
	if len(m.ctxs) != cfg.Processes {
		return false
	}
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	if cfg.NoCache {
		m.cache = nil
	} else {
		cc := cfg.Cache
		if cc.Words == 0 {
			cc = cache.PSI
		}
		if m.cache != nil && m.cache.Config() == cc {
			m.cache.Reset()
		} else {
			m.cache = cache.New(cc)
		}
	}
	m.mem.Reset()
	m.wf.Reset()
	// Normally already drained by the last run's flush; cleared here so
	// a reused machine never inherits deferred counts.
	clear(m.fastTab[:])
	m.abort = nil
	m.prog = prog
	m.ownProg = false
	m.loaded = 0
	m.out = cfg.Out
	m.stats.Reset()
	m.configureSinks(cfg)
	m.noCacheStall = 0
	m.heapTop = 0
	m.inferences = 0
	m.failed = false
	m.redoBarrier = 0
	m.forceTrail = false
	m.baseLMark, m.baseGMark = 0, 0
	m.feat = cfg.Features
	m.intrQuery = nil
	m.intrProcess = 0
	m.halted = false
	for p := range m.ctxs {
		m.ctxs[p] = context{
			global:     word.StackArea(p, word.AreaGlobal),
			local:      word.StackArea(p, word.AreaLocal),
			control:    word.StackArea(p, word.AreaControl),
			trail:      word.StackArea(p, word.AreaTrail),
			localTop:   stackBase,
			globalTop:  stackBase,
			controlTop: stackBase,
			trailTop:   stackBase,
		}
	}
	m.cur = 0
	m.ctx = &m.ctxs[0]
	m.load()
	return true
}

// DefaultProgressEvery is the heartbeat period when Config.Progress is
// set without an explicit ProgressEvery: every 5M microcycles, i.e. once
// per simulated second.
const DefaultProgressEvery = 5_000_000

// Heartbeat is one live-progress event: a snapshot of the run's
// accumulated work, emitted from the cycle stream every
// Config.ProgressEvery cycles.
type Heartbeat struct {
	Steps      int64 // microcycles executed so far
	SimNS      int64 // simulated time so far (cycles + memory stalls)
	Inferences int64 // logical inferences so far
}

// configureSinks wires the per-cycle tap, the profiler, the access
// feed, the telemetry hooks and the fault injector from a configuration
// (shared by New and Reset), then places the event-boundary sentinels.
func (m *Machine) configureSinks(cfg Config) {
	m.tap = cfg.Trace
	m.tapPred, _ = cfg.Trace.(micro.PredTracker)
	m.missSink, _ = cfg.Trace.(micro.MissSink)
	m.profile = cfg.Profile
	m.curPred = micro.NoPredicate
	// Every counter the profile is charged from starts at zero in New
	// and Reset.
	m.chargedSteps, m.chargedAccesses, m.chargedMiss = 0, 0, 0
	m.access = cfg.Access
	m.accessPred, _ = cfg.Access.(micro.PredTracker)
	m.flight = cfg.Flight
	m.hb = cfg.Progress
	if m.hb != nil && m.flight != nil {
		// Heartbeats are telemetry events too: mirror each one into the
		// flight recorder.
		inner, fl := m.hb, m.flight
		m.hb = func(h Heartbeat) {
			fl.Record(h.Steps, "heartbeat", "")
			inner(h)
		}
	}
	m.hbEvery = cfg.ProgressEvery
	if m.hbEvery <= 0 {
		m.hbEvery = DefaultProgressEvery
	}
	m.hbAt = m.hbEvery
	m.trackPred = m.profile != nil || m.tapPred != nil || m.accessPred != nil
	m.spans = cfg.Spans
	m.spanName = cfg.SpanName
	if m.spanName == "" {
		m.spanName = "step"
	}
	m.spanTID = cfg.SpanTID
	m.configureFault(cfg.Fault)
	m.maxSteps = cfg.MaxSteps
	m.poll = nil
	m.fastStop()
}

// armPoll arms (or with nil disarms) the context poll: from the current
// step on, fastBoundary checks ctx every engine.CheckEvery microcycles.
// Solutions.Run arms it for the whole run, so every nested
// sub-execution crosses the same poll points. Only the sentinel moves;
// the cycle accounting is the same with or without a poll.
func (m *Machine) armPoll(ctx stdcontext.Context) {
	m.poll = ctx
	m.pollAt = m.stats.Steps + engine.CheckEvery
	m.fastStop()
}

// tapped reports whether a per-cycle tap is armed: a trace sink, which
// needs every cycle record, or a fault injector, whose trace-FIFO site
// fires per record.
func (m *Machine) tapped() bool { return m.tap != nil || m.inj != nil }

// fastStop recomputes the event-boundary sentinel: the largest Steps
// value that needs no attention. The per-cycle tick compares Steps
// against it once; crossing it funnels into fastBoundary, which
// dispatches whichever events are due (per-cycle tap, heartbeat,
// step-limit abort, context poll) and moves the sentinel forward. With
// nothing armed the sentinel is the step limit alone, so the bare tick
// is one compare per cycle. While a per-cycle tap is armed the sentinel
// is pinned to 0 — Steps is at least 1 after the tick's increment — so
// every cycle enters fastBoundary. memStop follows stepStop, except
// that an armed access sink pins it to 0: memory cycles then take
// memCycleSlow, which delivers each access, while register-only cycles
// keep the one-compare tick.
func (m *Machine) fastStop() {
	if m.tapped() {
		m.stepStop, m.memStop = 0, 0
		return
	}
	stop := m.maxSteps
	if stop <= 0 {
		stop = math.MaxInt64
	}
	if m.hb != nil && m.hbAt-1 < stop {
		stop = m.hbAt - 1
	}
	if m.poll != nil && m.pollAt-1 < stop {
		stop = m.pollAt - 1
	}
	m.stepStop, m.memStop = stop, stop
	if m.access != nil {
		m.memStop = 0
	}
}

// fastBoundary services an event boundary: the cycle stream crossed
// stepStop, so at least one of the events the sentinel guards is
// (usually) due. key and a identify the cycle just counted (a is zero
// for a register-only cycle). The per-cycle tap sees the cycle first,
// rebuilt from its signature key; then come the trace-FIFO hook, the
// heartbeat, the step-limit abort and the context poll, in that order:
// a heartbeat that cancels the context stops the run at the poll due at
// or after it, and a run over its step limit ends with that class
// whatever its context says. An abort at a memory cycle waits in
// m.abort until memCycleSlow has taken the cycle's access to the cache,
// so the cache counts every memory command the statistics count. Out of
// line so the per-cycle tick stays within the inlining budget.
//
//go:noinline
func (m *Machine) fastBoundary(key uint32, a word.Addr) {
	if m.tap != nil {
		m.tap.Cycle(micro.SigCycle(key-1, a))
	}
	if m.inj != nil {
		// Every microcycle is one COLLECT trace record; the hook models
		// the trace FIFO overrunning.
		if c := m.inj.TraceRecord(); c != nil {
			m.abortAt(key, c)
			return
		}
	}
	if m.hb != nil && m.stats.Steps >= m.hbAt {
		m.hbAt += m.hbEvery
		m.hb(Heartbeat{Steps: m.stats.Steps, SimNS: m.TimeNS(), Inferences: m.inferences})
	}
	if m.maxSteps > 0 && m.stats.Steps > m.maxSteps {
		m.abortAt(key, stepLimitError(m.maxSteps))
		return
	}
	if m.poll != nil && m.stats.Steps >= m.pollAt {
		m.pollAt += engine.CheckEvery
		if err := m.poll.Err(); err != nil {
			m.abortAt(key, ctxAbort(err, m.stats.Steps))
			return
		}
	}
	m.fastStop()
}

// abortAt raises abort v at the cycle with signature key: at once for a
// register-only cycle, after its cache access for a memory cycle.
func (m *Machine) abortAt(key uint32, v any) {
	if micro.CacheOp((key-1)>>12&3) == micro.OpNone {
		panic(v)
	}
	m.abort = v
}

// charge charges the current predicate with the work done since the
// previous charge: the cycles, memory accesses and cache misses the
// machine's live counters have advanced by. Every cycle between two
// predicate switches executes on behalf of the predicate entered at the
// first, because enterPred runs between cycles — so charging at the
// switches attributes exactly what a per-cycle profiler would. Without
// a cache every access is a miss and adds cache.MissExtraNS to
// noCacheStall, which therefore holds the access count. A run aborted
// at a memory cycle has taken that cycle's access to the cache first
// (see fastBoundary), so it counts among the accesses like every other.
func (m *Machine) charge() {
	cycles := m.stats.Steps - m.chargedSteps
	if cycles == 0 {
		return
	}
	var acc, miss int64
	if c := m.cache; c != nil {
		acc, miss = c.Total.Accesses, c.Total.Accesses-c.Total.Hits
	} else {
		acc = m.noCacheStall / cache.MissExtraNS
		miss = acc
	}
	m.profile.Charge(m.curPred, cycles, acc-m.chargedAccesses, miss-m.chargedMiss)
	m.chargedSteps, m.chargedAccesses, m.chargedMiss = m.stats.Steps, acc, miss
}

// profileFlush charges the tail of the cycle stream (the work since the
// last predicate switch) at an observation boundary, so the profile's
// total equals Stats().Steps whenever statistics are observable. Called
// next to fastFlush at the Solutions.Run boundary.
func (m *Machine) profileFlush() {
	if m.profile != nil {
		m.charge()
	}
}

// stepLimitError is the step-limit abort.
func stepLimitError(limit int64) *RunError {
	return &RunError{Msg: fmt.Sprintf("step limit %d exceeded", limit), Class: engine.ErrStepLimit}
}

// ctxAbort is the abort of a run whose context is done at step steps,
// classed engine.ErrDeadline or engine.ErrCanceled.
func ctxAbort(err error, steps int64) *RunError {
	return &RunError{Msg: fmt.Sprintf("%v at step %d", err, steps), Class: engine.CtxClass(err)}
}

// configureFault wires (or with nil unwires) the fault injector into the
// machine and every hardware model that hosts an injection site. It is
// called unconditionally from configureSinks in New and Reset — after
// the memory, work file and cache are set up, because wf.Reset drops
// its injector — so a pooled machine never retains a previous run's
// injector.
func (m *Machine) configureFault(inj *fault.Injector) {
	m.inj = inj
	m.mem.SetInjector(inj)
	m.wf.SetInjector(inj)
	if m.cache != nil {
		m.cache.SetInjector(inj)
	}
}

// load copies newly compiled program code into the heap area.
func (m *Machine) load() {
	for ; m.loaded < len(m.prog.Code); m.loaded++ {
		m.mem.Write(word.MakeAddr(word.AreaHeap, uint32(m.loaded)), m.prog.Code[m.loaded])
	}
	if uint32(m.loaded) > m.heapTop {
		m.heapTop = uint32(m.loaded)
	}
}

// ownProgram switches the machine to a private copy of its program
// before the first dynamic mutation (assertz/retract), so a compiled
// image shared by a compile cache or a machine pool stays read-only and
// every run of a dynamic job starts from the same clauses. The copy
// keeps every code offset, so heap addresses — and the simulated
// numbers — are those of mutating the original in place.
func (m *Machine) ownProgram() {
	if !m.ownProg {
		m.prog = m.prog.Clone()
		m.ownProg = true
	}
}

// Stats returns the accumulated microcycle statistics.
func (m *Machine) Stats() *micro.Stats {
	m.fastFlush()
	return &m.stats
}

// AccountingMode reports engine.ModeExact while a per-cycle tap
// (Config.Trace or Config.Fault) is armed — every cycle then enters the
// event boundary and is handed over as a micro.Cycle — and
// engine.ModeFast otherwise, also with a profile or an access sink
// armed. Both count every cycle through the same signature table, so
// statistics never depend on the mode.
func (m *Machine) AccountingMode() string {
	if m.tapped() {
		return engine.ModeExact
	}
	return engine.ModeFast
}

// Flight returns the session flight recorder (nil unless configured).
func (m *Machine) Flight() *telemetry.Flight { return m.flight }

// Processes reports the number of process contexts the machine was built
// with (the shape of its memory areas, fixed for the machine's lifetime).
func (m *Machine) Processes() int { return len(m.ctxs) }

// Cache returns the cache model (nil when disabled).
func (m *Machine) Cache() *cache.Cache { return m.cache }

// Inferences reports the number of user predicate calls executed.
func (m *Machine) Inferences() int64 { return m.inferences }

// TimeNS reports the simulated execution time: one 200 ns cycle per
// microinstruction plus all memory stalls.
func (m *Machine) TimeNS() int64 {
	t := m.stats.Steps * micro.CycleNS
	if m.cache != nil {
		t += m.cache.StallNS
	} else {
		t += m.noCacheStall
	}
	return t
}

// Program returns the loaded program: after a dynamic mutation, the
// machine's private copy of it.
func (m *Machine) Program() *kl0.Program { return m.prog }

// HeapHighWater reports the heap allocation high-water mark in words
// (compiled code plus heap vectors and metacall stubs).
func (m *Machine) HeapHighWater() int { return int(m.heapTop) }

// AreaHighWater reports the high-water storage footprint of one memory
// area in words (the stacks grow and recede; this is the peak capacity
// ever touched, rounded up to the allocator's growth granularity).
func (m *Machine) AreaHighWater(a word.AreaID) int { return m.mem.AreaSize(a) }

// PhysicalPages reports how many translation pages the run touched.
func (m *Machine) PhysicalPages() int { return m.mem.PhysicalPages() }

// SetInterruptHandler installs a goal to be run (to completion, on the
// given process context) each time the program executes the interrupt/0
// built-in. This models the PSI's interrupt-handling processes: the
// handler shares the heap but runs on its own stack areas.
func (m *Machine) SetInterruptHandler(process int, q *kl0.Query) error {
	if process <= 0 || process >= len(m.ctxs) {
		return fmt.Errorf("core: interrupt process %d out of range (machine has %d)", process, len(m.ctxs))
	}
	m.intrQuery = q
	m.intrProcess = process
	return nil
}

// ---- microcycle emission helpers -------------------------------------

// Every microcycle flows through aluTick (register-only cycles) or
// memCycle (cycles with a cache command); both identify the cycle by its
// packed accounting signature (micro.Sig* layout, offset by one so the
// key doubles as the signature-table key) and count it with one table
// bump; the totals expand later (see fastacct.go). Steps stays live so
// the heartbeat, the step-limit abort and the context poll happen at
// the exact cycle, and the boundary is serviced after the slot update
// because the cycle that crosses the limit is accounted before the
// abort.

// enterPred records that the code pointer now executes inside predicate
// p. On a change it charges the predicate it leaves to the profile and
// notifies the trace's and the access sink's trackers. Called only when
// trackPred is set: the profile, a per-cycle reference on the trace and
// the access feed attribute by the same current-predicate notion, so
// their per-predicate splits agree exactly.
func (m *Machine) enterPred(p int) {
	if p != m.curPred {
		if m.profile != nil {
			m.charge()
		}
		m.curPred = p
		if m.tapPred != nil {
			m.tapPred.EnterPredicate(p)
		}
		if m.accessPred != nil {
			m.accessPred.EnterPredicate(p)
		}
	}
}

// read performs a memory read microcycle and returns the word. Like
// alu, it takes the cycle's packed accounting signature (micro.Sig*)
// instead of a Cycle struct: the signature is a compile-time constant
// at nearly every call site, and the cache command and address kind are
// OR'd in here.
func (m *Machine) read(mod micro.Module, a word.Addr, sig uint32) word.Word {
	return *m.memCycle((uint32(mod)|sig)+1, micro.OpRead, a)
}

// write performs a memory write microcycle.
func (m *Machine) write(mod micro.Module, a word.Addr, w word.Word, sig uint32) {
	*m.memCycle((uint32(mod)|sig)+1, micro.OpWrite, a) = w
}

// push performs a write-stack microcycle (no block read-in on miss).
// With the Write-Stack command ablated, it degrades to a plain write.
func (m *Machine) push(mod micro.Module, a word.Addr, w word.Word, sig uint32) {
	op := micro.OpWriteStack
	if m.feat.NoWriteStack {
		op = micro.OpWrite
	}
	*m.memCycle((uint32(mod)|sig)+1, op, a) = w
}

// memCycle is one memory microcycle in one call — key is the packed
// register signature (offset by one), op the cache command, which with
// the area kind completes the signature key (their bits are zero in a
// register signature). It bumps the signature slot, checks the event
// boundary, translates the address, probes the cache and returns the
// addressed word's storage for the caller to load or store. The common
// case — the slot already holds this key, no boundary is due, the cache
// is present and mem.Cell's short path applies — runs straight through;
// every other case goes to memCycleSlow, which does the same steps in
// the same order. The boundary test reads memStop, the memory cycles'
// own sentinel: with none due no tap, no injector and no access sink is
// armed (each pins memStop to zero), so the fast path needs no test for
// them — a miss sink only exists on a tap, so misses reach it from
// memCycleSlow alone.
func (m *Machine) memCycle(key uint32, op micro.CacheOp, a word.Addr) *word.Word {
	kind := a.Area().Kind()
	key |= uint32(op)<<12 | uint32(kind)<<19
	m.stats.Steps++
	sl := &m.fastTab[(key*0x9E3779B1)>>(32-fastTabBits)]
	c := m.cache
	if sl.key != key || m.stats.Steps > m.memStop || c == nil {
		return m.memCycleSlow(sl, key, op, a)
	}
	phys, cell, ok := m.mem.Cell(a, op != micro.OpRead)
	if !ok {
		return m.memCycleSlow(sl, key, op, a)
	}
	sl.n++
	c.AccessBlock(op, phys>>c.BlockShift(), kind)
	return cell
}

// memCycleSlow is memCycle's out-of-line path: a signature-table miss,
// a due event boundary (every cycle of a tapped run), an armed access
// sink, a machine without a cache, or a page not mapped yet, storage to
// grow or an armed injector. It counts the cycle and services the
// boundary, then translates, drives the cache, hands the access to the
// access sink and reaches the storage — through mem.Cell where its
// short path applies, else through Translate (which maps the page on
// first touch) and mem.CellSlow, whose parity hook fires after the
// cache's.
//
//go:noinline
func (m *Machine) memCycleSlow(sl *fastSlot, key uint32, op micro.CacheOp, a word.Addr) *word.Word {
	m.tickSlow(sl, key, a)
	if m.abort != nil && m.inj != nil {
		// The run ends at this cycle: its access completes only to be
		// counted, and fires no injection site.
		m.inj.Disarm()
	}
	write := op != micro.OpRead
	phys, cell, ok := m.mem.Cell(a, write)
	if !ok {
		phys = m.mem.Translate(a)
	}
	if c := m.cache; c != nil {
		if hit, _ := c.AccessBlock(op, phys>>c.BlockShift(), a.Area().Kind()); !hit && m.missSink != nil {
			m.missSink.CacheMiss()
		}
	} else {
		// No cache: every access pays the full 800 ns main-memory time,
		// i.e. 600 ns beyond the cycle.
		m.noCacheStall += cache.MissExtraNS
		if m.missSink != nil {
			m.missSink.CacheMiss()
		}
	}
	if m.access != nil {
		m.access.Access(op, a)
	}
	if v := m.abort; v != nil {
		m.abort = nil
		panic(v)
	}
	if ok {
		return cell
	}
	return m.mem.CellSlow(a, write)
}

// alu emits a register-only microcycle, described by its packed
// accounting signature (see the micro.Sig* helpers). Taking the
// signature as a scalar keeps alu within the inlining budget, so at
// call sites that OR literal Sig* values the whole key folds to an
// immediate — which is what makes the per-cycle cost a single table
// bump.
func (m *Machine) alu(mod micro.Module, sig uint32) {
	m.aluTick((uint32(mod) | sig) + 1)
}

// aluTick counts one register-only cycle, identified by its packed
// signature key (offset by one, matching the signature-table encoding).
// A register-only cycle is fully determined by its signature (Cache is
// OpNone, Addr is zero), so the boundary rebuilds it exactly. One test
// — the slot holds this key and no boundary is due — separates the
// common case from tickSlow.
func (m *Machine) aluTick(key uint32) {
	m.stats.Steps++
	sl := &m.fastTab[(key*0x9E3779B1)>>(32-fastTabBits)]
	if sl.key == key && m.stats.Steps <= m.stepStop {
		sl.n++
		return
	}
	m.tickSlow(sl, key, 0)
}

// tickSlow finishes counting a cycle whose slot holds another key (a
// collision or the slot's first use) or that crossed the event
// boundary: it rekeys the slot if needed, counts the cycle, then
// services the boundary. key and a identify the cycle (a is zero for a
// register-only cycle).
//
//go:noinline
func (m *Machine) tickSlow(sl *fastSlot, key uint32, a word.Addr) {
	if sl.key != key {
		if sl.key != 0 {
			m.fastExpand(sl.key, sl.n)
		}
		sl.key = key
		sl.n = 0
	}
	sl.n++
	if m.stats.Steps > m.stepStop {
		m.fastBoundary(key, a)
	}
}

// RunError reports an abnormal termination (resource exhaustion or a
// malformed execution state — the latter indicates a machine bug).
type RunError struct {
	Msg string
	// Class is the engine error taxonomy sentinel this error belongs to;
	// nil classifies as engine.ErrMalformed.
	Class error
}

func (e *RunError) Error() string { return "core: " + e.Msg }

// Unwrap maps the error onto the engine taxonomy so callers classify
// with errors.Is instead of matching message strings.
func (e *RunError) Unwrap() error {
	if e.Class != nil {
		return e.Class
	}
	return engine.ErrMalformed
}
