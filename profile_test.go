package psi

// The profiler differential suite. The machine charges each predicate
// its cycles, memory accesses and cache misses at the predicate
// switches (core.Config.Profile); obs.CycleProfiler counts the same
// three quantities cycle by cycle from the trace hook. On every program
// and in every way a run can end, the two must agree exactly, the
// profile total must equal the run's Steps, and the profiled run must
// keep fast accounting. `go run ./cmd/bench obs` times the profiler and
// repeats the share comparison.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/micro"
	"repro/internal/obs"
	"repro/internal/progs"
)

// profileRun runs b on a pooled machine under cfg and ctx until the
// first answer or the end of the run, and returns the machine's Steps,
// its accounting mode and the run's termination error (nil on an
// answer). fn, if set, sees the machine before it goes back to the pool.
func profileRun(t *testing.T, ctx context.Context, b progs.Benchmark, cfg core.Config, fn func(*core.Machine)) (steps int64, mode string, runErr error) {
	t.Helper()
	c, err := harness.Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = core.DefaultMaxSteps
	}
	live, err := c.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Release()
	st, err := live.Session.Next(ctx)
	if st != engine.Solution && err == nil {
		t.Fatalf("%s: run ended %v without an answer or an error", b.Name, st)
	}
	if fn != nil {
		fn(live.Machine)
	}
	return live.Machine.Stats().Steps, live.Machine.AccountingMode(), err
}

// memorySystem reports the memory accesses and misses that reached the
// machine's memory system: the cache's counters, or without a cache the
// accesses its stall time implies (each one a miss).
func memorySystem(m *core.Machine) (accesses, misses int64) {
	if c := m.Cache(); c != nil {
		return c.Total.Accesses, c.Total.Accesses - c.Total.Hits
	}
	n := (m.TimeNS() - m.Stats().Steps*micro.CycleNS) / cache.MissExtraNS
	return n, n
}

// sameProfile demands that the switch-charged profile equals the
// per-cycle reference in every predicate's cycles, memory accesses and
// misses, and that its total equals the run's Steps.
func sameProfile(t *testing.T, what string, got, ref *obs.RunProfile, steps int64) {
	t.Helper()
	if got.TotalCycles != steps {
		t.Errorf("%s: profile total %d cycles, run executed %d", what, got.TotalCycles, steps)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("%s: profile differs from the per-cycle reference:\n  got %+v\n  ref %+v", what, got.Entries, ref.Entries)
	}
}

// profileVsReference runs b twice under cfg — once with the profiler,
// once with the per-cycle reference on the trace hook — and compares
// the two. With cancelAt > 0 each run's context is canceled by a
// heartbeat at step cancelAt. It returns the profiled run's Steps and
// termination error.
func profileVsReference(t *testing.T, b progs.Benchmark, cfg core.Config, newFault func() *fault.Injector, cancelAt int64) (int64, error) {
	t.Helper()
	p, ref := obs.NewProfiler(), obs.NewCycleProfiler()
	pcfg, rcfg := cfg, cfg
	pcfg.Profile, rcfg.Trace = p, ref
	if newFault != nil {
		pcfg.Fault, rcfg.Fault = newFault(), newFault()
	}
	pctx, rctx := context.Background(), context.Background()
	if cancelAt > 0 {
		pctx = cancelAtHeartbeat(&pcfg, cancelAt)
		rctx = cancelAtHeartbeat(&rcfg, cancelAt)
	}
	var got, want *obs.RunProfile
	steps, mode, err := profileRun(t, pctx, b, pcfg, func(m *core.Machine) {
		got = p.Profile(m.Program(), b.Name)
		var acc, miss int64
		for _, e := range got.Entries {
			acc += e.MemAccesses
			miss += e.CacheMisses
		}
		if wantAcc, wantMiss := memorySystem(m); acc != wantAcc || miss != wantMiss {
			t.Errorf("profile charges %d accesses and %d misses, the memory system counted %d and %d",
				acc, miss, wantAcc, wantMiss)
		}
		if n := m.Stats().MemoryAccesses(); n != acc {
			t.Errorf("statistics count %d memory commands, the memory system %d accesses", n, acc)
		}
	})
	if newFault == nil && mode != engine.ModeFast {
		t.Errorf("profiled run accounts in %q mode, want %q", mode, engine.ModeFast)
	}
	refSteps, _, refErr := profileRun(t, rctx, b, rcfg, func(m *core.Machine) {
		want = ref.Profile(m.Program(), b.Name)
	})
	if refSteps != steps || fmt.Sprint(refErr) != fmt.Sprint(err) {
		t.Fatalf("reference run: %d steps, %v; profiled run: %d steps, %v", refSteps, refErr, steps, err)
	}
	sameProfile(t, b.Name, got, want, steps)
	return steps, err
}

// cancelAtHeartbeat arms cfg with a heartbeat at step every (and its
// multiples) that cancels the returned context.
func cancelAtHeartbeat(cfg *core.Config, every int64) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cfg.Progress = func(core.Heartbeat) { cancel() }
	cfg.ProgressEvery = every
	return ctx
}

// TestSamplingDifferentialTable1 holds the profile of every Table 1
// program, with the PSI cache and without a cache, to the per-cycle
// reference: every predicate's cycles, memory accesses and misses are
// equal, the total equals Steps and the profiled run stays fast. (The
// name is kept from the statistical profiler this suite once bounded.)
func TestSamplingDifferentialTable1(t *testing.T) {
	table := progs.Table1()
	if testing.Short() {
		table = table[:5]
	}
	for _, b := range table {
		t.Run(b.Name, func(t *testing.T) {
			for _, noCache := range []bool{false, true} {
				if _, err := profileVsReference(t, b, core.Config{NoCache: noCache}, nil, 0); err != nil {
					t.Fatalf("NoCache=%v: %v", noCache, err)
				}
			}
		})
	}
}

// TestProfileStepLimitAbort aborts runs at step limits that land on
// register-only cycles and on memory cycles (on nreverse, cycles 6, 8,
// 11 and 15 are such, whose access reaches the cache before the abort
// is raised), and the tail is still charged at the Step boundary.
func TestProfileStepLimitAbort(t *testing.T) {
	for _, limit := range []int64{1, 2, 3, 5, 7, 10, 14, 1000, 1001, 1002, 1003, 54321} {
		for _, noCache := range []bool{false, true} {
			_, err := profileVsReference(t, progs.NReverse, core.Config{MaxSteps: limit, NoCache: noCache}, nil, 0)
			if !errors.Is(err, engine.ErrStepLimit) {
				t.Fatalf("limit %d: run ended with %v, want a step-limit abort", limit, err)
			}
		}
	}
}

// TestProfileCanceledAtPoll cancels runs of a loop nested in findall/3
// from a heartbeat: each stops at the first context poll at or after
// the heartbeat (polls fall every engine.CheckEvery steps), and the
// profile and the statistics still match the per-cycle reference and
// the memory system, with and without the cache. The loop's period is 8
// cycles; the polls land on a register-only cycle of the plain loop and,
// with the unifications shifting its phase, on a memory cycle, whose
// access reaches the cache before the abort is raised.
func TestProfileCanceledAtPoll(t *testing.T) {
	for _, goal := range []string{"loop", "(X = 1, Y = 2, loop)"} {
		src := "loop :- loop.\ngo :- findall(X, " + goal + ", _).\n"
		// harness.Compile caches by name, so each program needs its own.
		b := progs.Benchmark{Name: "nested-loop " + goal, Source: src, Query: "go"}
		for _, cancelAt := range []int64{100_000, 2*engine.CheckEvery + 1} {
			for _, noCache := range []bool{false, true} {
				steps, err := profileVsReference(t, b, core.Config{MaxSteps: 1_000_000, NoCache: noCache}, nil, cancelAt)
				if !errors.Is(err, engine.ErrCanceled) {
					t.Fatalf("%s, cancel at %d: run ended with %v, want a canceled abort", goal, cancelAt, err)
				}
				if want := (cancelAt + engine.CheckEvery - 1) / engine.CheckEvery * engine.CheckEvery; steps != want {
					t.Errorf("%s, cancel at %d, NoCache=%v: run stopped at step %d, want the poll at %d", goal, cancelAt, noCache, steps, want)
				}
			}
		}
	}
}

// TestProfileContainedFault ends runs in a contained memory-parity
// fault; the profile charged up to the fault matches the reference.
func TestProfileContainedFault(t *testing.T) {
	for _, after := range []int64{1, 500, 20000} {
		plan := &fault.Plan{Site: fault.SiteMem, After: after, Seed: 1}
		_, err := profileVsReference(t, progs.QuickSort, core.Config{}, plan.New, 0)
		var fe *engine.FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("after %d: run ended with %v, want a contained fault", after, err)
		}
	}
}

// TestProfilePooledReset profiles a run on a machine reset from an
// earlier profiled run of another program: the charge baselines are
// cleared with the counters, so nothing of the first run leaks.
func TestProfilePooledReset(t *testing.T) {
	first, second := progs.QuickSort, progs.NReverse
	cf, err := harness.Compile(first)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := harness.Compile(second)
	if err != nil {
		t.Fatal(err)
	}
	p := obs.NewProfiler()
	m := core.New(cf.Prog, core.Config{MaxSteps: core.DefaultMaxSteps, Profile: p})
	if _, ok := m.SolveQuery(cf.Query).Next(); !ok {
		t.Fatalf("%s: no answer", first.Name)
	}
	for _, noCache := range []bool{false, true} {
		p.Reset()
		if !m.Reset(cs.Prog, core.Config{MaxSteps: core.DefaultMaxSteps, NoCache: noCache, Profile: p}) {
			t.Fatal("Reset refused")
		}
		if _, ok := m.SolveQuery(cs.Query).Next(); !ok {
			t.Fatalf("%s: no answer", second.Name)
		}
		var want *obs.RunProfile
		ref := obs.NewCycleProfiler()
		profileRun(t, context.Background(), second, core.Config{NoCache: noCache, Trace: ref}, func(rm *core.Machine) {
			want = ref.Profile(rm.Program(), second.Name)
		})
		sameProfile(t, fmt.Sprintf("reset, NoCache=%v", noCache), p.Profile(m.Program(), second.Name), want, m.Stats().Steps)
	}
}

// TestProfileAcrossSolves profiles two queries on one library machine,
// with clauses added between them, against a machine running the same
// sequence with the per-cycle reference attached.
func TestProfileAcrossSolves(t *testing.T) {
	m, err := LoadProgram(diffSrc, Options{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := LoadProgram(diffSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := obs.NewCycleProfiler()
	if !rm.m.Reset(rm.m.Program(), core.Config{MaxSteps: core.DefaultMaxSteps, Trace: ref}) {
		t.Fatal("Reset refused")
	}
	const added = "twice([], []).\ntwice([X|Xs], [X, X|Ys]) :- twice(Xs, Ys).\n"
	for _, mm := range []*Machine{m, rm} {
		if err := solveAll(t, mm, "flat([a, [b, [c, d]], [], [[e]]], R)"); err != nil {
			t.Fatal(err)
		}
	}
	sameProfile(t, "first query", m.Profile("t"), ref.Profile(rm.m.Program(), "t"), m.Steps())
	for _, mm := range []*Machine{m, rm} {
		if err := mm.AddClauses(added); err != nil {
			t.Fatal(err)
		}
		if err := solveAll(t, mm, "twice([1, 2, 3], L), len(L, N)"); err != nil {
			t.Fatal(err)
		}
	}
	if m.Steps() != rm.Steps() {
		t.Fatalf("profiled machine ran %d steps, reference machine %d", m.Steps(), rm.Steps())
	}
	sameProfile(t, "after AddClauses", m.Profile("t"), ref.Profile(rm.m.Program(), "t"), m.Steps())
	if got := m.AccountingMode(); got != engine.ModeFast {
		t.Errorf("profiled library machine accounts in %q mode, want %q", got, engine.ModeFast)
	}
}
