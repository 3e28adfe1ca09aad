// Bench measures the host cost of the simulator's layers and gates each
// against its floor. Every rung times its lanes with one interleaved
// best-of timer and writes one psi-bench/v1 record, BENCH_<rung>.json:
//
//   - engine: Solutions.Next vs the engine.Session layer on nreverse
//     (overhead <= 2%);
//   - fast: the untapped tick vs the same run with a per-cycle
//     micro.Stats tap on nreverse (speedup >= 1.5x);
//   - obs: bare fast vs fast with the profiler on nreverse (overhead
//     <= 10%), and the profiler's per-predicate shares against the
//     per-cycle reference profiler on every Table 1 program (within
//     0.05);
//   - pmms: the Figure 1 lanes through one streaming Sweeper pass vs the
//     classified policy grid, on the quick sort trace (grid cost per
//     lane <= 1.3x streaming).
//
// Usage:
//
//	go run ./cmd/bench [engine|fast|obs|pmms ...]
//
// With no selector every rung runs. The process exits 1 when a check
// misses its limit or a lane fails its per-run equivalence check, and 2
// on an unknown selector.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/micro"
	"repro/internal/obs"
	"repro/internal/pmms"
	"repro/internal/progs"
)

// schema names the record layout every rung writes.
const schema = "psi-bench/v1"

// rounds is the number of timed rounds per rung. Host frequency drift
// over seconds dwarfs a few-percent difference between lanes, so the
// lanes must sample the same drift windows, and the minimum over many
// rounds is the stable estimator.
const rounds = 40

// rung is one gate: measure times its lanes and evaluates its checks.
type rung struct {
	name    string // selector, and the record's file BENCH_<name>.json
	measure func() (record, error)
}

var rungs = []rung{
	{"engine", benchEngine},
	{"fast", benchFast},
	{"obs", benchObs},
	{"pmms", benchPMMS},
}

func main() { os.Exit(run(os.Args[1:], rungs, ".", os.Stdout, os.Stderr)) }

// run measures the rungs args selects (all when args is empty), writes
// each record under dir and returns the process exit status.
func run(args []string, all []rung, dir string, stdout, stderr io.Writer) int {
	selected := all
	if len(args) > 0 {
		byName := map[string]rung{}
		names := make([]string, len(all))
		for i, r := range all {
			byName[r.name], names[i] = r, r.name
		}
		selected = nil
		for _, a := range args {
			r, ok := byName[a]
			if !ok {
				fmt.Fprintf(stderr, "bench: unknown rung %q\nusage: bench [%s ...]\n", a, strings.Join(names, "|"))
				return 2
			}
			selected = append(selected, r)
		}
	}
	status := 0
	for _, r := range selected {
		rec, err := r.measure()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", r.name, err)
			status = 1
			continue
		}
		path := filepath.Join(dir, "BENCH_"+r.name+".json")
		if err := rec.write(path); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", r.name, err)
			status = 1
			continue
		}
		fmt.Fprintf(stdout, "wrote %s: %s\n", path, rec.summary())
		if !rec.WithinBudget {
			fmt.Fprintf(stderr, "bench: %s: a check missed its limit\n", r.name)
			status = 1
		}
	}
	return status
}

// lane is one timed workload: run performs one run and reports an error
// when the run fails the lane's equivalence checks.
type lane struct {
	name string
	run  func() error
}

// interleave runs the lanes round-robin, one untimed warm-up round and
// then n timed rounds, and returns each lane's best time in ns. now
// reads a monotonic clock.
func interleave(n int, now func() time.Duration, lanes ...lane) (map[string]int64, error) {
	best := make(map[string]int64, len(lanes))
	for i := -1; i < n; i++ {
		for _, l := range lanes {
			t0 := now()
			if err := l.run(); err != nil {
				return nil, fmt.Errorf("lane %s: %w", l.name, err)
			}
			d := int64(now() - t0)
			if b, ok := best[l.name]; i >= 0 && (!ok || d < b) {
				best[l.name] = d
			}
		}
	}
	return best, nil
}

var epoch = time.Now()

// wall is the monotonic clock the rungs time with.
func wall() time.Duration { return time.Since(epoch) }

// check is one gate on a measured value.
type check struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Limit float64 `json:"limit"`
	OK    bool    `json:"ok"`
}

func atMost(name string, v, limit float64) check  { return check{name, v, limit, v <= limit} }
func atLeast(name string, v, limit float64) check { return check{name, v, limit, v >= limit} }

type host struct {
	CPU        string `json:"cpu"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

// hostBlock describes the machine the lanes ran on; the CPU model is
// read best-effort from /proc/cpuinfo (Linux only).
func hostBlock() host {
	h := host{
		CPU:        runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// record is the psi-bench/v1 document one rung writes.
type record struct {
	Schema       string           `json:"schema"`
	Bench        string           `json:"bench"`
	Date         string           `json:"date"`
	Host         host             `json:"host"`
	Method       string           `json:"method"`
	Lanes        map[string]int64 `json:"lanes"` // best ns per run
	Checks       []check          `json:"checks"`
	WithinBudget bool             `json:"within_budget"`
}

func newRecord(bench, method string, lanes map[string]int64, checks ...check) record {
	ok := true
	for _, c := range checks {
		ok = ok && c.OK
	}
	return record{
		Schema: schema, Bench: bench, Date: time.Now().Format("2006-01-02"), Host: hostBlock(),
		Method: method, Lanes: lanes, Checks: checks, WithinBudget: ok,
	}
}

func (r record) write(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// summary renders the lanes in ms and the checks on one line.
func (r record) summary() string {
	names := make([]string, 0, len(r.Lanes))
	for name := range r.Lanes {
		names = append(names, name)
	}
	sort.Strings(names)
	var parts []string
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s %.3fms", name, float64(r.Lanes[name])/1e6))
	}
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "MISSED"
		}
		parts = append(parts, fmt.Sprintf("%s %.4g (limit %.4g) %s", c.Name, c.Value, c.Limit, verdict))
	}
	return strings.Join(parts, "; ")
}

// pooled compiles b and builds the one machine every lane of a rung
// resets and reuses.
func pooled(b progs.Benchmark) (*harness.Compiled, *core.Machine, error) {
	c, err := harness.Compile(b)
	if err != nil {
		return nil, nil, err
	}
	return c, core.New(c.Prog, core.Config{MaxSteps: core.DefaultMaxSteps}), nil
}

// reset readies m for one run of c under cfg and checks that the run
// takes the accounting mode the lane means to measure.
func reset(m *core.Machine, c *harness.Compiled, cfg core.Config, mode string) error {
	if !m.Reset(c.Prog, cfg) {
		return errors.New("Reset refused")
	}
	if got := m.AccountingMode(); got != mode {
		return fmt.Errorf("runs in mode %q, want %q", got, mode)
	}
	return nil
}

// firstAnswer runs c's query on m to its first answer.
func firstAnswer(m *core.Machine, c *harness.Compiled) error {
	sols := m.SolveQuery(c.Query)
	if _, ok := sols.Next(); !ok {
		return fmt.Errorf("no answer: %v", sols.Err())
	}
	return nil
}

// sameWork returns a per-run check that every run accounts the cycle
// count of the first, so the lanes provably measure identical work.
func sameWork() func(steps int64) error {
	var want int64
	return func(steps int64) error {
		if want == 0 {
			want = steps
		} else if steps != want {
			return fmt.Errorf("accounted %d cycles, previous runs %d", steps, want)
		}
		return nil
	}
}

// overheadPct is the percentage by which lane costs more than base.
func overheadPct(lane, base int64) float64 { return (float64(lane)/float64(base) - 1) * 100 }

func benchEngine() (record, error) {
	b := progs.NReverse
	c, m, err := pooled(b)
	if err != nil {
		return record{}, err
	}
	cfg := core.Config{MaxSteps: core.DefaultMaxSteps}
	lanes, err := interleave(rounds, wall,
		lane{"direct", func() error {
			if err := reset(m, c, cfg, engine.ModeFast); err != nil {
				return err
			}
			return firstAnswer(m, c)
		}},
		lane{"session", func() error {
			if err := reset(m, c, cfg, engine.ModeFast); err != nil {
				return err
			}
			if st, err := core.NewSession(m, c.Query).Next(nil); st != engine.Solution {
				return fmt.Errorf("status %v: %v", st, err)
			}
			return nil
		}})
	if err != nil {
		return record{}, err
	}
	return newRecord(
		"engine.Session indirection (core.NewSession + Next(nil) vs Solutions.Next)",
		fmt.Sprintf("best of %d interleaved rounds over %s on one pooled (Reset) machine; direct = Solutions.Next, session = core.NewSession + Session.Next(nil), which takes the Drive fast path (one unbounded step, no context polling)", rounds, b.Name),
		lanes,
		atMost("overhead_pct", overheadPct(lanes["session"], lanes["direct"]), 2),
	), nil
}

func benchFast() (record, error) {
	b := progs.NReverse
	c, m, err := pooled(b)
	if err != nil {
		return record{}, err
	}
	var tap micro.Stats
	same := sameWork()
	runLane := func(cfg core.Config, mode string) func() error {
		return func() error {
			tap.Reset()
			if err := reset(m, c, cfg, mode); err != nil {
				return err
			}
			if err := firstAnswer(m, c); err != nil {
				return err
			}
			if err := same(m.Stats().Steps); err != nil {
				return err
			}
			if cfg.Trace != nil && tap != *m.Stats() {
				return errors.New("tapped micro.Stats differ from the table expansion")
			}
			return nil
		}
	}
	lanes, err := interleave(rounds, wall,
		lane{"exact", runLane(core.Config{MaxSteps: core.DefaultMaxSteps, Trace: &tap}, engine.ModeExact)},
		lane{"fast", runLane(core.Config{MaxSteps: core.DefaultMaxSteps}, engine.ModeFast)})
	if err != nil {
		return record{}, err
	}
	return newRecord(
		"untapped signature-table tick (fast) vs the same tick with a per-cycle micro.Stats tap (exact)",
		fmt.Sprintf("best of %d interleaved rounds over %s on one pooled (Reset) machine; every run checks the lane's accounting mode, equal cycle counts across lanes and, in the exact lane, that the tap's statistics equal the table expansion (full statistics locked by the TestFastDifferential* suite)", rounds, b.Name),
		lanes,
		atLeast("speedup", float64(lanes["exact"])/float64(lanes["fast"]), 1.5),
	), nil
}

func benchObs() (record, error) {
	b := progs.NReverse
	c, m, err := pooled(b)
	if err != nil {
		return record{}, err
	}
	p := obs.NewProfiler()
	same := sameWork()
	runLane := func(cfg core.Config) func() error {
		return func() error {
			p.Reset()
			// The profiler is charged at predicate switches, not per
			// cycle: both lanes stay fast.
			if err := reset(m, c, cfg, engine.ModeFast); err != nil {
				return err
			}
			if err := firstAnswer(m, c); err != nil {
				return err
			}
			steps := m.Stats().Steps
			if err := same(steps); err != nil {
				return err
			}
			if cfg.Profile != nil {
				if total := p.Profile(c.Prog, "").TotalCycles; total != steps {
					return fmt.Errorf("profile attributed %d cycles of %d", total, steps)
				}
			}
			return nil
		}
	}
	lanes, err := interleave(rounds, wall,
		lane{"fast_bare", runLane(core.Config{MaxSteps: core.DefaultMaxSteps})},
		lane{"fast_profiled", runLane(core.Config{MaxSteps: core.DefaultMaxSteps, Profile: p})})
	if err != nil {
		return record{}, err
	}
	maxDelta, worst, err := shareAccuracy()
	if err != nil {
		return record{}, err
	}
	return newRecord(
		"telemetry layer: the switch-charged profiler on the fast accounting engine (overhead + accuracy gates)",
		fmt.Sprintf("overhead: best of %d interleaved rounds over %s on one pooled (Reset) machine, bare fast vs fast+profiler, every run checks fast mode, equal cycle counts and profile total = Steps; accuracy: all %d Table 1 programs profiled and run with the per-cycle reference profiler (obs.CycleProfiler on Config.Trace), totals equal, largest per-predicate share delta: %s",
			rounds, b.Name, len(progs.Table1()), worst),
		lanes,
		atMost("overhead_pct", overheadPct(lanes["fast_profiled"], lanes["fast_bare"]), 10),
		atMost("max_share_delta", maxDelta, 0.05),
	), nil
}

// shareAccuracy profiles every Table 1 program and runs it again with
// the per-cycle reference profiler, and returns the largest absolute
// per-predicate share delta with a "program/predicate" label for it
// ("none, every share equal" when all agree). The two totals must be
// equal.
func shareAccuracy() (maxDelta float64, worst string, err error) {
	worst = "none, every share equal"
	for _, b := range progs.Table1() {
		prof, err := harness.Profile(b)
		if err != nil {
			return 0, "", err
		}
		ref, err := referenceProfile(b)
		if err != nil {
			return 0, "", err
		}
		if prof.TotalCycles != ref.TotalCycles {
			return 0, "", fmt.Errorf("%s: profile total %d != reference total %d", b.Name, prof.TotalCycles, ref.TotalCycles)
		}
		shares := map[string]float64{}
		for _, e := range ref.Entries {
			shares[e.Name] = e.Share
		}
		for _, e := range prof.Entries {
			d := e.Share - shares[e.Name]
			if d < 0 {
				d = -d
			}
			if d > maxDelta {
				maxDelta, worst = d, b.Name+"/"+e.Name
			}
			delete(shares, e.Name)
		}
		for name, share := range shares {
			if share > maxDelta {
				maxDelta, worst = share, b.Name+"/"+name
			}
		}
	}
	return maxDelta, worst, nil
}

// referenceProfile runs b to its first answer with the per-cycle
// reference profiler on the trace hook.
func referenceProfile(b progs.Benchmark) (*obs.RunProfile, error) {
	c, err := harness.Compile(b)
	if err != nil {
		return nil, err
	}
	ref := obs.NewCycleProfiler()
	live, err := c.Open(core.Config{MaxSteps: core.DefaultMaxSteps, Trace: ref})
	if err != nil {
		return nil, err
	}
	defer live.Release()
	if st, err := live.Session.Next(nil); st != engine.Solution {
		return nil, fmt.Errorf("%s: status %v: %v", b.Name, st, err)
	}
	return ref.Profile(live.Machine.Program(), b.Name), nil
}

func benchPMMS() (record, error) {
	b := progs.QuickSort
	l, err := harness.TraceFor(b)
	if err != nil {
		return record{}, err
	}
	legacy := pmms.LegacyLanes()
	grid := pmms.DefaultGrid().Configs()
	ref := 0
	for i, cfg := range grid {
		if cfg == cache.PSI {
			ref = i
			break
		}
	}
	lanes, err := interleave(rounds, wall,
		lane{"streaming", func() error {
			pmms.NewSweeper(legacy).ReplayLog(l)
			return nil
		}},
		lane{"grid", func() error {
			s := pmms.NewSweeper(grid)
			s.Classify(ref)
			s.ReplayLog(l)
			return nil
		}})
	if err != nil {
		return record{}, err
	}
	perLane := func(name string, n int) float64 { return float64(lanes[name]) / float64(n) }
	return newRecord(
		"PMMS cache replay: the Figure 1 lanes vs the classified policy grid, each in one streaming pass",
		fmt.Sprintf("best of %d interleaved rounds over the %s trace (%d records); streaming = one pmms.Sweeper pass over the %d Figure 1 lanes (11 capacities + PSI + one-set + store-through), grid = one classified Sweeper pass over the %d-lane default policy grid (lru/fifo/random/plru x 3 capacities x 3 way counts, every miss classified); the check compares cost per lane, grid vs streaming",
			rounds, b.Name, l.Len(), len(legacy), len(grid)),
		lanes,
		atMost("grid_per_lane_ratio", perLane("grid", len(grid))/perLane("streaming", len(legacy)), 1.3),
	), nil
}
