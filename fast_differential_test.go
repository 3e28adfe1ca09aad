package psi

// Differential lockdown of the single cycle-accounting path. The
// machine counts every cycle with one signature-table bump and expands
// the totals at observation boundaries (internal/core/fastacct.go); a
// per-cycle tap receives the same cycles rebuilt from their keys. On
// every program the table expansion must equal a micro.Stats reference
// fed cycle by cycle through a tap, and attaching the tap must not
// change any observable: the answer sequence (including variable names
// and bindings order), the termination class and trip step, the
// simulated time, the inference count and the cache model's counters.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/mapper"
	"repro/internal/micro"
	"repro/internal/progs"
)

// machineStats is the slice of the machine API the equivalence check
// needs; both core.Machine (harness runs) and psi.Machine satisfy it.
type machineStats interface {
	Stats() *micro.Stats
	TimeNS() int64
	Inferences() int64
	Cache() *cache.Cache
}

// statsDiff lists the micro.Stats fields on which two values disagree,
// one line per field (arrays print whole, the index-level detail is
// visible in the values).
func statsDiff(want, got micro.Stats) []string {
	var diffs []string
	vw, vg := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < vw.NumField(); i++ {
		if !reflect.DeepEqual(vw.Field(i).Interface(), vg.Field(i).Interface()) {
			diffs = append(diffs, fmt.Sprintf("%s: want %v, got %v",
				vw.Type().Field(i).Name, vw.Field(i), vg.Field(i)))
		}
	}
	return diffs
}

// assertStats demands that a machine's table expansion equals the
// per-cycle reference field by field.
func assertStats(t *testing.T, name string, ref micro.Stats, m machineStats) {
	t.Helper()
	if got := *m.Stats(); got != ref {
		t.Errorf("%s: table expansion diverges from the per-cycle reference:\n  %s",
			name, strings.Join(statsDiff(ref, got), "\n  "))
	}
}

// assertSameRun demands bit-identical accounting between an untapped
// and a tapped run of the same workload.
func assertSameRun(t *testing.T, name string, untapped, tapped machineStats) {
	t.Helper()
	su, st := *untapped.Stats(), *tapped.Stats()
	if su != st {
		t.Errorf("%s: micro.Stats diverge with a tap attached:\n  %s", name, strings.Join(statsDiff(su, st), "\n  "))
	}
	if u, tp := untapped.TimeNS(), tapped.TimeNS(); u != tp {
		t.Errorf("%s: TimeNS: untapped %d, tapped %d", name, u, tp)
	}
	if u, tp := untapped.Inferences(), tapped.Inferences(); u != tp {
		t.Errorf("%s: Inferences: untapped %d, tapped %d", name, u, tp)
	}
	cu, ct := untapped.Cache(), tapped.Cache()
	if (cu == nil) != (ct == nil) {
		t.Fatalf("%s: cache presence: untapped %v, tapped %v", name, cu != nil, ct != nil)
	}
	if cu == nil {
		return
	}
	if cu.Total != ct.Total {
		t.Errorf("%s: cache total: untapped %+v, tapped %+v", name, cu.Total, ct.Total)
	}
	if cu.Area != ct.Area {
		t.Errorf("%s: cache areas: untapped %+v, tapped %+v", name, cu.Area, ct.Area)
	}
	if cu.StallNS != ct.StallNS || cu.Fills != ct.Fills ||
		cu.WriteBacks != ct.WriteBacks || cu.WriteThroughs != ct.WriteThroughs {
		t.Errorf("%s: cache traffic: untapped stall=%d fills=%d wb=%d wt=%d, tapped stall=%d fills=%d wb=%d wt=%d",
			name, cu.StallNS, cu.Fills, cu.WriteBacks, cu.WriteThroughs,
			ct.StallNS, ct.Fills, ct.WriteBacks, ct.WriteThroughs)
	}
}

// TestFastDifferentialTable1 runs all 19 Table-1 programs through the
// harness (the pooled-machine path the published tables use) untapped
// and with a per-cycle micro.Stats reference tap, and demands that both
// table expansions equal the reference. This is the headline
// equivalence proof: the numbers behind Tables 1-7 are what a
// cycle-by-cycle micro.Stats would have counted.
func TestFastDifferentialTable1(t *testing.T) {
	for _, b := range progs.Table1() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			if testing.Short() && (b.Name == "harmonizer-3" || b.Name == "lcp-3") {
				t.Skip("slow Table-1 row skipped in -short mode")
			}
			untapped, err := harness.RunPSIWith(harness.Options{}, b, false)
			if err != nil {
				t.Fatal(err)
			}
			defer untapped.Release()
			c, err := harness.Compile(b)
			if err != nil {
				t.Fatal(err)
			}
			var ref micro.Stats
			tapped, err := c.Open(core.Config{MaxSteps: 4_000_000_000, Trace: &ref})
			if err != nil {
				t.Fatal(err)
			}
			defer tapped.Release()
			if st, err := tapped.Session.Next(context.Background()); st != engine.Solution {
				t.Fatalf("tapped run: status %v, err %v", st, err)
			}
			if got := untapped.Machine.AccountingMode(); got != "fast" {
				t.Fatalf("untapped run reports mode %q", got)
			}
			if got := tapped.Machine.AccountingMode(); got != "exact" {
				t.Fatalf("tapped run reports mode %q", got)
			}
			assertStats(t, b.Name+" (untapped)", ref, untapped.Machine)
			assertStats(t, b.Name+" (tapped)", ref, tapped.Machine)
			assertSameRun(t, b.Name, untapped.Machine, tapped.Machine)
		})
	}
}

// runTapPair runs one query on fresh machines untapped and with a
// COLLECT trace tap, whose records replayed through micro.Stats.Cycle
// are the per-cycle reference. It demands byte-identical answer
// streams (same engine, so even the generated variable names must
// match), identical termination classes, and bit-identical accounting
// at the point both runs stopped.
func runTapPair(t *testing.T, opts Options, src, query string, vars []string, limit int) {
	t.Helper()
	run := func(tap bool) ([]string, error, *Machine) {
		o := opts
		o.Collect = tap
		m, err := LoadProgram(src, o)
		if err != nil {
			t.Fatal(err)
		}
		s, err := m.Solve(query)
		if err != nil {
			t.Fatalf("Solve(%q): %v", query, err)
		}
		var out []string
		for len(out) < limit {
			ans, ok := s.Next()
			if !ok {
				break
			}
			var row []string
			for _, v := range vars {
				if tm := ans[v]; tm != nil {
					row = append(row, v+"="+tm.String())
				}
			}
			out = append(out, strings.Join(row, ","))
		}
		return out, s.Err(), m
	}
	uAns, uErr, um := run(false)
	tAns, tErr, tm := run(true)
	if fmt.Sprint(uAns) != fmt.Sprint(tAns) {
		t.Fatalf("query %q: answers diverge:\n  untapped %v\n  tapped   %v", query, uAns, tAns)
	}
	if uc, tc := engine.ClassName(uErr), engine.ClassName(tErr); uc != tc {
		t.Fatalf("query %q: termination class: untapped %q (%v), tapped %q (%v)", query, uc, uErr, tc, tErr)
	}
	ref := *mapper.Stats(tm.Trace())
	assertStats(t, query+" (untapped)", ref, um)
	assertStats(t, query+" (tapped)", ref, tm)
	assertSameRun(t, query, um, tm)
}

// TestFastDifferentialAnswers exercises multi-solution backtracking:
// with and without a tap the machine must enumerate the same answers in
// the same order and account identical cycles doing it.
func TestFastDifferentialAnswers(t *testing.T) {
	for _, q := range []struct {
		query string
		vars  []string
	}{
		{"app(X, Y, [a, b, c, d])", []string{"X", "Y"}},
		{"mem(X, [a, f(1), [a], b, a])", []string{"X"}},
		{"flat([a, [b, [c, d]], [], [[e]]], R)", []string{"R"}},
		{"pairup([1, 2, 3], Ps)", []string{"Ps"}},
		{"len([a, b, c], N)", []string{"N"}},
		{"app(X, [k], Z), mem(b, Z)", []string{"X", "Z"}},
	} {
		runTapPair(t, Options{}, diffSrc, q.query, q.vars, 8)
	}
}

// TestFastDifferentialBuiltinEdges replays the builtin edge suite (the
// queries the cross-machine differential tests use) with and without a
// tap: arithmetic wraparound, standard order, structure builtins, and
// the malformed cases whose abort point must land on the same cycle.
func TestFastDifferentialBuiltinEdges(t *testing.T) {
	vars := []string{"X", "O", "T", "N", "A", "L"}
	for _, q := range []string{
		// Arithmetic: flooring division, modulo, 32-bit wraparound.
		"X is -7 // 3", "X is 7 // -3", "X is -7 mod 3", "X is 7 mod -3",
		"X is 2147483647 + 1", "X is -2147483648 - 1", "X is 65536 * 65536",
		"X is -2147483648 // -1", "X is abs(-2147483648)",
		"X is min(3, -2)", "X is max(3, -2)", "X is -(5)",
		// Standard order of terms.
		"compare(O, 1, foo)", "compare(O, foo, f(a))", "compare(O, abc, abd)",
		"compare(O, g(a), f(a, b))", "compare(O, f(a, b), f(a, c))",
		"compare(O, [a, b], [a])", "compare(O, f(x, y), [x|y])",
		"eq(X, yes), f(a) @< g(a)", "eq(X, yes), 7 @< foo",
		// Structure builtins.
		"functor(f(a, b), N, A)", "functor([h|t], N, A)", "functor(T, foo, 3)",
		"arg(1, f(a, b, c), X)", "arg(4, f(a), X)", "arg(1, [h|t], X)",
		"f(a, b) =.. L", "[h|t] =.. L", "T =.. [foo, 1, 2]",
	} {
		runTapPair(t, Options{}, diffSrc, q, vars, 8)
	}
	// Malformed cases: both runs must abort with the malformed class,
	// with no answers, at the identical cycle count.
	for _, q := range []string{
		"X is 1 // 0",
		"X is 1 mod 0",
		"X is foo + 1",
		"X is Y + 1",
		"functor(T, foo, -1)",
		"T =.. [f | X]",
		"T =.. [f(a), 1]",
	} {
		runTapPair(t, Options{}, diffSrc, q, vars, 1)
	}
}

// TestFastDifferentialStepLimit drives an unbounded enumeration into
// the step limit with and without a tap: the abort must hit the same
// class after the same answers at the same Steps, with identical
// statistics — pinning the sentinel for the tap may not move the trip
// point by even one cycle.
func TestFastDifferentialStepLimit(t *testing.T) {
	runTapPair(t, Options{MaxSteps: 20_000}, diffSrc,
		"app(X, Y, Z)", []string{"X", "Y", "Z"}, 1_000_000)
}

// TestFastDifferentialCacheConfigs repeats a cache-sensitive workload
// across cache shapes (including store-through and no-cache): the tap
// must leave the cache model and its stall accounting untouched.
func TestFastDifferentialCacheConfigs(t *testing.T) {
	for _, o := range []Options{
		{},
		{CacheWords: 1024, CacheSets: 1},
		{StoreThrough: true},
		{NoCache: true},
	} {
		runTapPair(t, o, diffSrc, "flat([a, [b, [c, d]], [], [[e]]], R)", []string{"R"}, 4)
	}
}

// TestFastFaultClassification injects the same seeded fault at every
// site with and without a COLLECT tap next to the injector: the fault
// must be contained at the identical step, site and message, still map
// to the fault exit code, and leave statistics that equal the trace's
// per-cycle reference up to the faulting cycle.
func TestFastFaultClassification(t *testing.T) {
	for _, plan := range []fault.Plan{
		{Site: fault.SiteMem, After: 200, Seed: 5},
		{Site: fault.SiteCache, After: 50, Seed: 5},
		{Site: fault.SiteWF, After: 100, Seed: 5},
		{Site: fault.SiteTrace, After: 300, Seed: 5},
	} {
		var faults []*engine.FaultError
		var machines []*Machine
		for _, collect := range []bool{false, true} {
			p := plan
			m, err := LoadProgram(diffSrc, Options{Fault: &p, Collect: collect})
			if err != nil {
				t.Fatal(err)
			}
			if got := m.AccountingMode(); got != "exact" {
				t.Fatalf("%v, collect=%v: mode %q, want exact", plan, collect, got)
			}
			runErr := solveAll(t, m, "app(X, Y, Z)")
			if runErr == nil {
				t.Fatalf("%v, collect=%v: fault never fired", plan, collect)
			}
			if !errors.Is(runErr, engine.ErrFault) || engine.ExitCode(runErr) != engine.ExitFault {
				t.Fatalf("%v, collect=%v: error %v is not a contained exit-%d fault", plan, collect, runErr, engine.ExitFault)
			}
			var fe *engine.FaultError
			if !errors.As(runErr, &fe) {
				t.Fatalf("%v, collect=%v: error %v carries no *engine.FaultError", plan, collect, runErr)
			}
			faults = append(faults, fe)
			machines = append(machines, m)
		}
		u, tp := faults[0], faults[1]
		if u.Step != tp.Step || u.Site != tp.Site || u.Msg != tp.Msg {
			t.Errorf("%v: fault depends on the tap: step %d/%d, site %q/%q, msg %q/%q",
				plan, u.Step, tp.Step, u.Site, tp.Site, u.Msg, tp.Msg)
		}
		ref := *mapper.Stats(machines[1].Trace())
		assertStats(t, plan.String(), ref, machines[0])
		assertSameRun(t, plan.String(), machines[0], machines[1])
	}
}
