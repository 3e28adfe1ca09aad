package harness

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/pmms"
	"repro/internal/progs"
	"repro/internal/telemetry"
)

// TestEvaluationRunsEachWorkloadOnce pins the run plan's deduplication:
// one evaluation simulates each distinct (program, features) pair once —
// the 23 default-feature programs every table, Figure 1, Table 6 and the
// cache lab read, plus the 24 ablation variants — at any worker count,
// while a standalone section still runs only its own programs.
func TestEvaluationRunsEachWorkloadOnce(t *testing.T) {
	fullEvalStructs(t)
	const want = 23 + 24
	for i, workers := range []int{1, 8} {
		if got := evalOnce.runs[i]; got != want {
			t.Errorf("-j %d: one evaluation ran %d PSI simulations, want %d", workers, got, want)
		}
	}
	n0 := psiRuns()
	if _, err := Table3With(Options{}); err != nil {
		t.Fatal(err)
	}
	if got, want := psiRuns()-n0, int64(len(progs.HardwareSet())); got != want {
		t.Errorf("standalone Table 3 ran %d PSI simulations, want %d", got, want)
	}
}

// TestPlanSchedulesSweepsFirst pins the evaluation's run order: the
// runs that feed cache sweepers start first, most lanes first (WINDOW
// carries the Figure 1 sweep and the cache lab grid), and the rest
// follow longest first by paper time — so no sweeping run, whose host
// cost its paper time does not show, sorts last.
func TestPlanSchedulesSweepsFirst(t *testing.T) {
	p := newPlan(Options{})
	planFigure1(p)
	planCacheLab(p, pmms.DefaultGrid(), progs.Window1)
	planTable1(p)
	order := p.schedule()
	if got := order[0].b.Name; got != progs.Window1.Name {
		t.Errorf("first run %s, want %s", got, progs.Window1.Name)
	}
	sweeping := 0
	for _, r := range p.runs {
		if len(r.sweeps) > 0 {
			sweeping++
		}
	}
	if sweeping != 3 {
		t.Fatalf("%d runs feed sweepers, want 3 (the Figure 1 workloads)", sweeping)
	}
	for i, r := range order {
		if i < sweeping {
			if len(r.sweeps) == 0 {
				t.Errorf("run %d (%s) feeds no sweeper but precedes a sweeping run", i, r.label)
			}
			continue
		}
		if len(r.sweeps) > 0 {
			t.Errorf("sweeping run %s scheduled at %d, after unswept runs", r.label, i)
		}
		if prev := order[i-1]; i > sweeping && prev.b.PaperPSIMS < r.b.PaperPSIMS {
			t.Errorf("%s (%.0f ms) scheduled after %s (%.0f ms)", r.label, r.b.PaperPSIMS, prev.label, prev.b.PaperPSIMS)
		}
	}
}

// puzzleFault is a cache fault that stops 8 puzzle at step 1294, limited
// to the runs whose cell label contains only.
func puzzleFault(only string) *fault.Plan {
	return &fault.Plan{Site: fault.SiteCache, After: 300, Seed: 2, Only: only}
}

const puzzleFaultText = "8 puzzle: fault at cache (step 1294): cache check at access 300: cache tag parity error: bit 23 flipped in block frame 258"

// TestKeepGoingSharedRunDegradesEveryReader is the degradation gate of
// the shared run: the one faulted 8 puzzle run degrades every cell that
// reads it, in section order, with the entries the per-section harness
// recorded when each cell ran its own simulation — byte-identical at
// any worker count.
func TestKeepGoingSharedRunDegradesEveryReader(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: full evaluation runs three times")
	}
	var want []DegradedRun
	for _, s := range []struct{ section, cell string }{
		{"table2", "table2/8 puzzle"},
		{"table3", "table3/8 puzzle"},
		{"table4", "table4/8 puzzle"},
		{"table5", "table5/8 puzzle"},
		{"table7", "table7/8 puzzle"},
		{"figure1", "fig1/8 puzzle"},
	} {
		want = append(want, DegradedRun{Section: s.section, Cell: s.cell, Class: "fault", Error: puzzleFaultText})
	}
	var first string
	for _, workers := range []int{1, 2, 8} {
		e, err := EvaluationWith(Options{Workers: workers, Fault: puzzleFault("8 puzzle"), KeepGoing: true})
		if err != nil {
			t.Fatalf("-j %d: keep-going evaluation aborted: %v", workers, err)
		}
		if len(e.Degraded) != len(want) {
			t.Fatalf("-j %d: %d degraded entries, want %d: %+v", workers, len(e.Degraded), len(want), e.Degraded)
		}
		for i := range want {
			if e.Degraded[i] != want[i] {
				t.Errorf("-j %d: degraded[%d] = %+v, want %+v", workers, i, e.Degraded[i], want[i])
			}
		}
		b, err := e.JSON()
		if err != nil {
			t.Fatal(err)
		}
		got := e.Text() + string(b)
		if first == "" {
			first = got
		} else if got != first {
			line, x, y := firstDiffLine(first, got)
			t.Errorf("-j %d differs from -j 1 at line %d:\n j1: %q\n got: %q", workers, line, x, y)
		}
	}
}

// TestKeepGoingFaultStaysInItsSection checks that the fault filter is
// part of the run key: with the plan matching Table 2's cells only,
// Table 2's rows degrade, and every other section — 8 puzzle's Table 3
// row included — reads its own clean run and equals the clean
// evaluation.
func TestKeepGoingFaultStaysInItsSection(t *testing.T) {
	clean, _ := fullEvalStructs(t)
	e, err := EvaluationWith(Options{Fault: puzzleFault("table2/"), KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Table2) != 0 {
		t.Errorf("Table 2 kept %d faulted rows", len(e.Table2))
	}
	for _, d := range e.Degraded {
		if d.Section != "table2" {
			t.Errorf("fault leaked out of Table 2: %+v", d)
		}
	}
	if len(e.Degraded) != len(progs.Table2Set()) {
		t.Errorf("%d degraded entries, want one per Table 2 row: %+v", len(e.Degraded), e.Degraded)
	}
	e.Table2, e.Degraded = clean.Table2, nil
	if got, want := e.Text(), clean.Text(); got != want {
		line, x, y := firstDiffLine(want, got)
		t.Errorf("sections outside Table 2 differ from the clean evaluation at line %d:\n clean: %q\n got:   %q", line, x, y)
	}
}

// TestSharedRunAbortMatchesSectionError pins the abort contract without
// KeepGoing: the evaluation fails with the first failing section's
// joined cell errors, as the per-section harness did.
func TestSharedRunAbortMatchesSectionError(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs the full evaluation plan")
	}
	_, err := EvaluationWith(Options{Fault: puzzleFault("8 puzzle")})
	if err == nil {
		t.Fatal("faulted evaluation succeeded, want abort")
	}
	if want := "table2/8 puzzle: " + puzzleFaultText; err.Error() != want {
		t.Errorf("abort error %q, want %q", err, want)
	}
	var ce *CellError
	if !errors.As(err, &ce) || ce.Cell != "table2/8 puzzle" {
		t.Errorf("abort error %v does not name the failing cell table2/8 puzzle", err)
	}
	if !errors.Is(err, engine.ErrFault) {
		t.Errorf("abort error %v is not classified engine.ErrFault", err)
	}
}

// TestSectionsAreViewsOfEvaluation checks the sharing argument directly:
// every section computed standalone, on a plan of its own, renders
// byte-identically to its slice of the full evaluation's text.
func TestSectionsAreViewsOfEvaluation(t *testing.T) {
	full, _ := fullEval(t)
	o := Options{}
	sections := []struct {
		name   string
		render func() (string, error)
	}{
		{"table1", func() (string, error) { r, err := Table1With(o); return FormatTable1(r), err }},
		{"table2", func() (string, error) { r, err := Table2With(o); return FormatTable2(r), err }},
		{"table3", func() (string, error) { r, err := Table3With(o); return FormatTable3(r), err }},
		{"table4", func() (string, error) { r, err := Table4With(o); return FormatTable4(r), err }},
		{"table5", func() (string, error) { r, err := Table5With(o); return FormatTable5(r), err }},
		{"table6", func() (string, error) { r, err := Table6With(o); return FormatTable6(r), err }},
		{"table7", func() (string, error) { r, err := Table7With(o); return FormatTable7(r), err }},
		{"figure1", func() (string, error) { r, err := Figure1With(o); return FormatFigure1(r), err }},
		{"ablations", func() (string, error) { r, err := AblationsWith(o); return FormatAblations(r), err }},
		{"cache_lab", func() (string, error) { r, err := CacheLabWith(o); return FormatCacheLab(r), err }},
	}
	rest := full
	for _, s := range sections {
		got, err := s.render()
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		slice := rest
		if len(slice) > len(got) {
			slice = slice[:len(got)]
		}
		if got != slice {
			line, x, y := firstDiffLine(slice, got)
			t.Fatalf("standalone %s differs from the evaluation at its line %d:\n evaluation: %q\n standalone: %q", s.name, line, x, y)
		}
		rest = strings.TrimPrefix(rest[len(got):], "\n") // the blank line after each section
	}
	if rest != "" {
		t.Errorf("evaluation text continues past the last section: %q", rest)
	}
}

// TestSweepCountersOncePerRun pins the sweep counters on a run that
// carries two sweepers, as window-1 carries the Figure 1 sweep and the
// cache lab grid: the sweep count rises by two, the records by the
// memory accesses each sweeper was fed, and the wall time by the run's
// wall once. The run is the plan's only work (its program compiled
// beforehand), so one run's wall fits in the plan's elapsed time and
// two do not.
func TestSweepCountersOncePerRun(t *testing.T) {
	reg := telemetry.Default
	sweeps := reg.Counter("psi_cache_sweeps_total", "")
	records := reg.Counter("psi_cache_sweep_records_total", "")
	wall := reg.Counter("psi_cache_sweep_wall_nanoseconds_total", "")
	if _, err := Compile(progs.Window1); err != nil {
		t.Fatal(err)
	}
	p := newPlan(Options{Workers: 1})
	r := p.psi("sweep/"+progs.Window1.Name, progs.Window1, core.Features{})
	a, b := pmms.NewSweeper(pmms.LegacyLanes()), pmms.NewSweeper(pmms.LegacyLanes())
	r.sweep(a)
	r.sweep(b)
	s0, r0, w0 := sweeps.Value(), records.Value(), wall.Value()
	start := time.Now()
	p.execute()
	elapsed := time.Since(start).Nanoseconds()
	if r.err != nil {
		t.Fatal(r.err)
	}
	if got := sweeps.Value() - s0; got != 2 {
		t.Errorf("sweeps rose by %d, want 2", got)
	}
	if got, want := records.Value()-r0, a.MemoryAccesses()+b.MemoryAccesses(); got != want || a.MemoryAccesses() >= a.Cycles() {
		t.Errorf("records rose by %d, want the %d memory accesses fed (cycles %d per sweeper)", got, want, a.Cycles())
	}
	if got := wall.Value() - w0; got <= 0 || got > elapsed {
		t.Errorf("wall rose by %d ns; the run's wall is at most %d ns", got, elapsed)
	}
}
