// Benchengine refreshes the engine-layer benchmark documents.
//
// By default it regenerates BENCH_engine.json: one benchmark run
// through Solutions.Next directly and through the engine.Session layer
// (core.NewSession + Next with a nil context), recording the measured
// indirection overhead against the <= 2% budget.
//
// With -fast it instead regenerates BENCH_fast.json: the same pooled
// machine runs nreverse untapped ("fast") and with a per-cycle
// micro.Stats tap attached ("exact", the cost a trace or per-cycle
// profile consumer pays), interleaved run by run, and the document
// records the speedup against the >= 1.5x floor. The process exits
// nonzero when a budget is missed, so CI can gate on either document.
//
// Run via `make bench-engine` / `make bench-fast` after changing the
// engine layer, the stepped execution loop or the accounting paths.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/micro"
	"repro/internal/progs"
)

// cpuModel best-effort reads the host CPU model name (Linux only).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}

const budgetPct = 2.0

// speedupFloor is the CI gate on the untapped tick: it must run
// nreverse at least this many times faster than the same run with a
// per-cycle tap attached.
const speedupFloor = 1.5

func main() {
	out := flag.String("o", "", "output file (- for stdout; default BENCH_engine.json, or BENCH_fast.json with -fast)")
	fastBench := flag.Bool("fast", false, "benchmark the untapped tick against a per-cycle tap instead of the session indirection")
	flag.Parse()
	if *out == "" {
		if *fastBench {
			*out = "BENCH_fast.json"
		} else {
			*out = "BENCH_engine.json"
		}
	}
	if *fastBench {
		benchFast(*out)
		return
	}

	b := progs.NReverse
	c, err := harness.Compile(b)
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.Config{MaxSteps: 4_000_000_000}

	m := core.New(c.Prog, cfg)
	runDirect := func() {
		if !m.Reset(c.Prog, cfg) {
			log.Fatal("Reset refused")
		}
		sols := m.SolveQuery(c.Query)
		if _, ok := sols.Next(); !ok {
			log.Fatal(sols.Err())
		}
	}
	runSession := func() {
		if !m.Reset(c.Prog, cfg) {
			log.Fatal("Reset refused")
		}
		sess := core.NewSession(m, c.Query)
		if st, err := sess.Next(nil); st != engine.Solution {
			log.Fatalf("status %v err %v", st, err)
		}
	}
	// Interleave the lanes run by run and keep each lane's best time:
	// host frequency drift over seconds dwarfs the one-interface-call
	// difference, so the lanes must sample the same drift windows, and
	// the minimum of many paired runs is the stable estimator (same
	// best-of-N pattern as the profiler overhead guard).
	const pairs = 40
	runDirect() // warm up code paths and the machine's memory arrays
	runSession()
	direct, session := int64(1<<62), int64(1<<62)
	for i := 0; i < pairs; i++ {
		t0 := time.Now()
		runDirect()
		if d := time.Since(t0).Nanoseconds(); d < direct {
			direct = d
		}
		t1 := time.Now()
		runSession()
		if s := time.Since(t1).Nanoseconds(); s < session {
			session = s
		}
	}
	overhead := (float64(session)/float64(direct) - 1) * 100
	doc := map[string]any{
		"bench": "engine.Session indirection (core.NewSession + Next(nil) vs Solutions.Next)",
		"date":  time.Now().Format("2006-01-02"),
		"host": map[string]any{
			"cpu":        cpuModel(),
			"cpus":       runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		},
		"method": fmt.Sprintf(
			"best of %d run-by-run interleaved pairs over %s on a pooled (Reset) machine; direct = Solutions.Next, session = core.NewSession + Session.Next(nil), which takes the Drive fast path (one unbounded step, no context polling)",
			pairs, b.Name),
		"per_run_ns_op": map[string]any{
			"direct":  direct,
			"session": session,
		},
		"overhead_pct":  fmt.Sprintf("%.2f", overhead),
		"budget_pct":    fmt.Sprintf("%.1f", budgetPct),
		"within_budget": overhead <= budgetPct,
		"determinism":   "the session path executes the identical microcycle sequence (TestSteppedExecutionMatchesUnbounded locks the counts; the harness goldens are byte-identical through the engine layer)",
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s: direct %.3fms vs session %.3fms per run (%.2f%% overhead, budget %.1f%%)\n",
		*out, float64(direct)/1e6, float64(session)/1e6, overhead, budgetPct)
	if overhead > budgetPct {
		fmt.Fprintln(os.Stderr, "benchengine: WARNING: overhead exceeds the budget")
		os.Exit(1)
	}
}

// benchFast measures the untapped tick against the same run with a
// per-cycle micro.Stats tap on nreverse and writes BENCH_fast.json. The
// two lanes run on the same pooled machine, interleaved run by run,
// and each lane keeps its best time: the minimum of many paired runs is
// the only stable estimator on a host whose frequency drifts (same
// methodology as the indirection guard above). Exits nonzero when the
// speedup misses the floor.
func benchFast(out string) {
	b := progs.NReverse
	c, err := harness.Compile(b)
	if err != nil {
		log.Fatal(err)
	}
	var ref micro.Stats
	cfgExact := core.Config{MaxSteps: 4_000_000_000, Trace: &ref}
	cfgFast := core.Config{MaxSteps: 4_000_000_000}

	m := core.New(c.Prog, cfgExact)
	var wantSteps int64
	runLane := func(cfg core.Config, mode string) {
		ref.Reset()
		if !m.Reset(c.Prog, cfg) {
			log.Fatal("Reset refused")
		}
		if got := m.AccountingMode(); got != mode {
			log.Fatalf("lane %q runs in mode %q", mode, got)
		}
		sols := m.SolveQuery(c.Query)
		if _, ok := sols.Next(); !ok {
			log.Fatal(sols.Err())
		}
		// Equivalence spot check on every run: both lanes must account
		// the identical cycle count, and the tap must see exactly the
		// cycles the table expansion counts (the differential test suite
		// locks the full statistics; this guards the benchmark itself
		// against accidentally measuring different work).
		steps := m.Stats().Steps
		if wantSteps == 0 {
			wantSteps = steps
		} else if steps != wantSteps {
			log.Fatalf("lane %q accounted %d cycles, previous lanes %d", mode, steps, wantSteps)
		}
		if cfg.Trace != nil && ref != *m.Stats() {
			log.Fatalf("lane %q: tapped micro.Stats differ from the table expansion", mode)
		}
	}
	const pairs = 40
	runLane(cfgExact, "exact") // warm up code paths and memory arrays
	runLane(cfgFast, "fast")
	exact, fast := int64(1<<62), int64(1<<62)
	for i := 0; i < pairs; i++ {
		t0 := time.Now()
		runLane(cfgExact, "exact")
		if d := time.Since(t0).Nanoseconds(); d < exact {
			exact = d
		}
		t1 := time.Now()
		runLane(cfgFast, "fast")
		if d := time.Since(t1).Nanoseconds(); d < fast {
			fast = d
		}
	}
	speedup := float64(exact) / float64(fast)
	doc := map[string]any{
		"bench": "untapped signature-table tick (fast) vs the same tick with a per-cycle micro.Stats tap (exact)",
		"date":  time.Now().Format("2006-01-02"),
		"host": map[string]any{
			"cpu":        cpuModel(),
			"cpus":       runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		},
		"method": fmt.Sprintf(
			"best of %d run-by-run interleaved pairs over %s on one pooled (Reset) machine; both lanes execute the identical simulated cycle stream (cycle counts and the tap's statistics cross-checked every run, full statistics locked by the reference-tap differential suite)",
			pairs, b.Name),
		"per_run_ns_op": map[string]any{
			"exact": exact,
			"fast":  fast,
		},
		"speedup":       fmt.Sprintf("%.2f", speedup),
		"speedup_floor": fmt.Sprintf("%.1f", speedupFloor),
		"within_budget": speedup >= speedupFloor,
		"exact_guard":   "the exact lane is what a trace or per-cycle profile consumer pays: every cycle enters the event boundary and is handed to the tap as a micro.Cycle",
		"determinism":   "identical answers, bindings order and Table 1-7 statistics with and without a tap (TestFastDifferential* in the root package)",
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if out == "-" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(out, buf, 0o644); err != nil {
		log.Fatal(err)
	} else {
		fmt.Printf("wrote %s: exact %.3fms vs fast %.3fms per run (%.2fx speedup, floor %.1fx)\n",
			out, float64(exact)/1e6, float64(fast)/1e6, speedup, speedupFloor)
	}
	if speedup < speedupFloor {
		fmt.Fprintln(os.Stderr, "benchengine: WARNING: untapped speedup below the floor")
		os.Exit(1)
	}
}
