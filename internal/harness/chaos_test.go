package harness

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/micro"
	"repro/internal/progs"
)

// The chaos suite: every injected fault must terminate its run with a
// classified engine.ErrFault — never an uncontained panic — and a
// machine that contained a fault must go back to the pool clean enough
// to replay subsequent runs byte-identically. `make chaos` runs these
// tests under the race detector.

// chaosPlans is the seeded sweep the chaos tests replay: small trigger
// ordinals so every site fires well inside nreverse (30)'s run.
func chaosPlans() []fault.Plan { return fault.Sweep(1, 2, 500) }

func TestChaosSweepContained(t *testing.T) {
	for _, plan := range chaosPlans() {
		plan := plan
		t.Run(plan.String(), func(t *testing.T) {
			t.Parallel()
			o := Options{Fault: &plan}
			_, err := runPSIWith(o, "chaos/"+progs.NReverse.Name, progs.NReverse, false)
			if err == nil {
				t.Fatalf("plan %v: fault never fired (trigger beyond the run?)", plan)
			}
			if !errors.Is(err, engine.ErrFault) {
				t.Fatalf("plan %v: error %v is not classified engine.ErrFault", plan, err)
			}
			var fe *engine.FaultError
			if !errors.As(err, &fe) {
				t.Fatalf("plan %v: error %v carries no *engine.FaultError", plan, err)
			}
			if fe.Site != plan.Site.String() {
				t.Errorf("plan %v: contained at site %q, want %q", plan, fe.Site, plan.Site)
			}
			if fe.Stack == "" {
				t.Errorf("plan %v: fault report has no containment stack", plan)
			}
			if engine.ExitCode(err) != engine.ExitFault {
				t.Errorf("plan %v: exit code %d, want %d", plan, engine.ExitCode(err), engine.ExitFault)
			}
		})
	}
}

func TestChaosReproducible(t *testing.T) {
	plan := fault.Plan{Site: fault.SiteMem, After: 200, Seed: 5}
	var msgs []string
	var steps []int64
	for run := 0; run < 2; run++ {
		o := Options{Fault: &plan}
		_, err := runPSIWith(o, "chaos/repro", progs.NReverse, false)
		if err == nil {
			t.Fatal("fault never fired")
		}
		var fe *engine.FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("error %v carries no *engine.FaultError", err)
		}
		msgs = append(msgs, err.Error())
		steps = append(steps, fe.Step)
	}
	if msgs[0] != msgs[1] {
		t.Errorf("same plan, different fault text:\n%s\n%s", msgs[0], msgs[1])
	}
	if steps[0] != steps[1] {
		t.Errorf("same plan contained at step %d then %d", steps[0], steps[1])
	}
}

// TestFaultedPoolMachinesReplayClean is the pool-hygiene regression: a
// machine that contained an injected fault is released to the pool, and
// every later clean run — including concurrent ones — must reproduce
// the baseline statistics exactly. Reset must erase all fault state
// (the injector wiring, the countdowns) along with the rest.
func TestFaultedPoolMachinesReplayClean(t *testing.T) {
	r, err := RunPSI(progs.NReverse, false)
	if err != nil {
		t.Fatal(err)
	}
	baseline := *r.Machine.Stats()
	r.Release()

	// Contain a fault at every site; each failing run's machine goes
	// back into the pool from inside the run path.
	for _, plan := range chaosPlans() {
		plan := plan
		o := Options{Fault: &plan}
		if _, err := runPSIWith(o, "chaos/pool", progs.NReverse, false); !errors.Is(err, engine.ErrFault) {
			t.Fatalf("plan %v: want contained fault, got %v", plan, err)
		}
	}

	// Replay clean runs at -j > 1 on the (now fault-tainted) pool.
	const replays = 8
	stats, errs := parMapErrs(replays, make([]int, replays), func(int) (micro.Stats, error) {
		r, err := RunPSI(progs.NReverse, false)
		if err != nil {
			return micro.Stats{}, err
		}
		defer r.Release()
		return *r.Machine.Stats(), nil
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("replay %d failed: %v", i, err)
		}
		if stats[i] != baseline {
			t.Errorf("replay %d diverged from the pre-fault baseline:\n got %+v\nwant %+v",
				i, stats[i], baseline)
		}
	}
}

// TestKeepGoingSectionDeterministic pins the degradation path: with one
// workload faulted under KeepGoing, the surviving rows and the degraded
// log must be byte-identical at any worker count.
func TestKeepGoingSectionDeterministic(t *testing.T) {
	type result struct {
		text     string
		degraded []DegradedRun
	}
	run := func(workers int) result {
		o := Options{
			Workers:   workers,
			Fault:     &fault.Plan{Site: fault.SiteCache, After: 300, Seed: 2, Only: "8 puzzle"},
			KeepGoing: true,
			Degraded:  NewDegradedLog(),
		}
		rows, err := Table2With(o)
		if err != nil {
			t.Fatalf("workers=%d: keep-going section returned error %v", workers, err)
		}
		return result{FormatTable2(rows), o.Degraded.Runs()}
	}
	serial, parallel := run(1), run(8)
	if serial.text != parallel.text {
		t.Errorf("table text differs between -j 1 and -j 8:\n%s\n----\n%s", serial.text, parallel.text)
	}
	if len(serial.degraded) != 1 || len(parallel.degraded) != 1 {
		t.Fatalf("degraded entries: serial %d, parallel %d; want exactly 1 each",
			len(serial.degraded), len(parallel.degraded))
	}
	if serial.degraded[0] != parallel.degraded[0] {
		t.Errorf("degraded entry differs:\n%+v\n%+v", serial.degraded[0], parallel.degraded[0])
	}
	d := serial.degraded[0]
	if d.Section != "table2" || d.Cell != "table2/8 puzzle" || d.Class != "fault" {
		t.Errorf("degraded entry misattributed: %+v", d)
	}
	if strings.Contains(serial.text, "8 puzzle") {
		t.Errorf("degraded workload still present in the surviving table:\n%s", serial.text)
	}
}

// TestKeepGoingWithoutFlagAborts pins the non-keep-going contract: the
// same faulted section aborts with a cell-attributed, classified error.
func TestKeepGoingWithoutFlagAborts(t *testing.T) {
	o := Options{
		Workers: 4,
		Fault:   &fault.Plan{Site: fault.SiteCache, After: 300, Seed: 2, Only: "8 puzzle"},
	}
	rows, err := Table2With(o)
	if err == nil {
		t.Fatalf("faulted section succeeded with %d rows, want abort", len(rows))
	}
	if !errors.Is(err, engine.ErrFault) {
		t.Errorf("abort error %v is not classified engine.ErrFault", err)
	}
	var ce *CellError
	if !errors.As(err, &ce) || ce.Cell != "table2/8 puzzle" {
		t.Errorf("abort error %v does not name the failing cell table2/8 puzzle", err)
	}
}

// TestKeepGoingEvaluationDeterministic is the acceptance check for the
// full report: a keep-going evaluation with one faulted workload still
// renders every section (text and JSON) and is byte-identical at any
// worker count. Skipped in -short mode: it computes the evaluation twice.
func TestKeepGoingEvaluationDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: full evaluation runs twice")
	}
	run := func(workers int) (string, string) {
		o := Options{
			Workers:   workers,
			Fault:     &fault.Plan{Site: fault.SiteMem, After: 400, Seed: 11, Only: "quick sort"},
			KeepGoing: true,
			Degraded:  NewDegradedLog(),
		}
		e, err := EvaluationWith(o)
		if err != nil {
			t.Fatalf("workers=%d: keep-going evaluation aborted: %v", workers, err)
		}
		if len(e.Degraded) == 0 {
			t.Fatalf("workers=%d: no degraded entries despite the injected fault", workers)
		}
		b, err := e.JSON()
		if err != nil {
			t.Fatalf("workers=%d: JSON: %v", workers, err)
		}
		return e.Text(), string(b)
	}
	text2, json2 := run(2)
	text8, json8 := run(8)
	if text2 != text8 {
		t.Error("keep-going evaluation text differs between -j 2 and -j 8")
	}
	if json2 != json8 {
		t.Error("keep-going evaluation JSON differs between -j 2 and -j 8")
	}
	if !strings.Contains(text2, "Degraded workloads:") {
		t.Error("report text is missing the degraded section")
	}
	for _, section := range []string{"Table 1", "Table 7", "Figure 1", "Ablation"} {
		if !strings.Contains(text2, section) {
			t.Errorf("degraded report lost section %q", section)
		}
	}
}

// TestChaosFastModeContained repeats the containment check on every
// site of the sweep with a COLLECT trace tapping the cycle stream next
// to the injector: each fault must still terminate as a classified
// engine.ErrFault with the fault exit code — and must be contained at
// the identical step, with the identical message, as the run without
// the trace.
func TestChaosFastModeContained(t *testing.T) {
	for _, plan := range chaosPlans() {
		plan := plan
		t.Run(plan.String(), func(t *testing.T) {
			t.Parallel()
			runOnce := func(collect bool) *engine.FaultError {
				o := Options{Fault: &plan}
				_, err := runPSIWith(o, "chaos/fast/"+progs.NReverse.Name, progs.NReverse, collect)
				if err == nil {
					t.Fatalf("plan %v (collect=%v): fault never fired", plan, collect)
				}
				if !errors.Is(err, engine.ErrFault) {
					t.Fatalf("plan %v (collect=%v): error %v is not classified engine.ErrFault", plan, collect, err)
				}
				if engine.ExitCode(err) != engine.ExitFault {
					t.Fatalf("plan %v (collect=%v): exit code %d, want %d", plan, collect, engine.ExitCode(err), engine.ExitFault)
				}
				var fe *engine.FaultError
				if !errors.As(err, &fe) {
					t.Fatalf("plan %v (collect=%v): error %v carries no *engine.FaultError", plan, collect, err)
				}
				return fe
			}
			bare, traced := runOnce(false), runOnce(true)
			if bare.Step != traced.Step {
				t.Errorf("plan %v: contained at step %d bare, %d with a trace tap", plan, bare.Step, traced.Step)
			}
			if bare.Error() != traced.Error() {
				t.Errorf("plan %v: fault text depends on the trace tap:\n%s\n%s", plan, bare.Error(), traced.Error())
			}
		})
	}
}
