package harness

import (
	"repro/internal/core"
	"repro/internal/mapper"
	"repro/internal/micro"
	"repro/internal/pmms"
	"repro/internal/progs"
	"repro/internal/trace"
	"repro/internal/word"
)

// ---- Table 1 -------------------------------------------------------------

// T1Row is one Table 1 row: execution times on both machines.
type T1Row struct {
	Name       string  `json:"name"`
	PSIMS      float64 `json:"psi_ms"`
	DECMS      float64 `json:"dec_ms"`
	Ratio      float64 `json:"ratio"` // DEC/PSI
	PaperPSIMS float64 `json:"paper_psi_ms"`
	PaperDECMS float64 `json:"paper_dec_ms"`
	PaperRatio float64 `json:"paper_ratio"`
	Inferences int64   `json:"inferences"`
}

// Table1With measures every benchmark on both engines.
func Table1With(o Options) ([]T1Row, error) { return onPlan(o, planTable1) }

// planTable1 declares each Table 1 cell's PSI and DEC-10 runs.
func planTable1(p *plan) func() ([]T1Row, error) {
	set := progs.Table1()
	cells := make([]string, len(set))
	psi := make([]*planRun, len(set))
	dec := make([]*planRun, len(set))
	for i, b := range set {
		cells[i] = "table1/" + b.Name
		psi[i] = p.psi(cells[i], b, core.Features{})
		dec[i] = p.dec(cells[i], b)
	}
	return func() ([]T1Row, error) {
		return cellRows(p.o, "table1", cells, func(i int) (T1Row, error) {
			if psi[i].err != nil {
				return T1Row{}, psi[i].err
			}
			if dec[i].err != nil {
				return T1Row{}, dec[i].err
			}
			b := set[i]
			return T1Row{
				Name:       b.Name,
				PSIMS:      psi[i].ms(),
				DECMS:      dec[i].ms(),
				Ratio:      dec[i].ms() / psi[i].ms(),
				PaperPSIMS: b.PaperPSIMS,
				PaperDECMS: b.PaperDECMS,
				PaperRatio: b.PaperDECMS / b.PaperPSIMS,
				Inferences: psi[i].inferences,
			}, nil
		})
	}
}

// ---- Table 2 -------------------------------------------------------------

// T2Row is one Table 2 row: firmware module step ratios (percent).
type T2Row struct {
	Name string `json:"name"`
	// Modules is ordered as micro.Module: control, unify, trail,
	// get_arg, cut, built.
	Modules [micro.NumModules]float64 `json:"modules"`
}

// Table2With measures the interpreter-module step distribution.
func Table2With(o Options) ([]T2Row, error) { return onPlan(o, planTable2) }

func planTable2(p *plan) func() ([]T2Row, error) {
	return psiRows(p, "table2", progs.Table2Set(), func(b progs.Benchmark, r *planRun) T2Row {
		row := T2Row{Name: b.Name}
		for m := micro.Module(0); m < micro.NumModules; m++ {
			row.Modules[m] = r.stats.ModuleRatio(m) * 100
		}
		return row
	})
}

// ---- Table 3 -------------------------------------------------------------

// T3Row is one Table 3 row: cache command rates per microstep (percent).
type T3Row struct {
	Name       string  `json:"name"`
	Read       float64 `json:"read"`
	WriteStack float64 `json:"write_stack"`
	Write      float64 `json:"write"`
	WriteTotal float64 `json:"write_total"`
	Total      float64 `json:"total"`
}

// Table3With measures the cache command frequency of each workload.
func Table3With(o Options) ([]T3Row, error) { return onPlan(o, planTable3) }

func planTable3(p *plan) func() ([]T3Row, error) {
	return psiRows(p, "table3", progs.HardwareSet(), func(b progs.Benchmark, r *planRun) T3Row {
		read := r.stats.CacheOpRatio(micro.OpRead) * 100
		ws := r.stats.CacheOpRatio(micro.OpWriteStack) * 100
		wr := r.stats.CacheOpRatio(micro.OpWrite) * 100
		return T3Row{
			Name: b.Name, Read: read, WriteStack: ws, Write: wr,
			WriteTotal: ws + wr, Total: read + ws + wr,
		}
	})
}

// ---- Table 4 -------------------------------------------------------------

// T4Row is one Table 4 row: access share per memory area (percent).
type T4Row struct {
	Name  string     `json:"name"`
	Areas [5]float64 `json:"areas"` // heap, global, local, control, trail
}

// Table4With measures the per-area access distribution.
func Table4With(o Options) ([]T4Row, error) { return onPlan(o, planTable4) }

func planTable4(p *plan) func() ([]T4Row, error) {
	return psiRows(p, "table4", progs.HardwareSet(), func(b progs.Benchmark, r *planRun) T4Row {
		row := T4Row{Name: b.Name}
		for k := 0; k < 5; k++ {
			row.Areas[k] = r.stats.AreaAccessRatio(word.AreaID(k)) * 100
		}
		return row
	})
}

// ---- Table 5 -------------------------------------------------------------

// T5Row is one Table 5 row: cache hit ratios per area (percent).
type T5Row struct {
	Name  string     `json:"name"`
	Areas [5]float64 `json:"areas"` // heap, global, local, control, trail
	Total float64    `json:"total"`
}

// Table5With measures per-area cache hit ratios with the PSI cache.
func Table5With(o Options) ([]T5Row, error) { return onPlan(o, planTable5) }

func planTable5(p *plan) func() ([]T5Row, error) {
	return psiRows(p, "table5", progs.HardwareSet(), func(b progs.Benchmark, r *planRun) T5Row {
		row := T5Row{Name: b.Name, Total: r.total.HitRatio() * 100}
		for k := 0; k < 5; k++ {
			row.Areas[k] = r.area[k].HitRatio() * 100
		}
		return row
	})
}

// ---- Figure 1 and the cache ablations -------------------------------------

// Fig1 holds the Figure 1 sweep plus the one-set and store-through
// ablations discussed alongside it.
type Fig1 struct {
	Workload string       `json:"workload"`
	Points   []pmms.Point `json:"points"`
	// Ablations at 8K words on the same trace:
	TwoSet8K     float64 `json:"two_set_8k"`    // paper configuration
	OneSet8K     float64 `json:"one_set_8k"`    // direct-mapped, same capacity
	StoreThrough float64 `json:"store_through"` // store-through instead of store-in
	// Per-workload one-set penalty for the programs the paper names.
	OneSetPenalty map[string]float64 `json:"one_set_penalty"`
	// PenaltyOrder lists OneSetPenalty's keys in benchmark order, so
	// formatting never depends on map iteration order.
	PenaltyOrder []string `json:"penalty_order"`
}

// Figure1With replays the WINDOW cache-command stream over cache sizes
// from 8 words to 8K words (the paper's sweep) and computes the
// ablations. Each workload's sweeper is fed the memory accesses of the
// run the tables read, so no trace is materialized and no workload is
// simulated for the figure alone:
// WINDOW feeds the whole capacity sweep plus the ablations, the penalty
// workloads their two configurations.
func Figure1With(o Options) (*Fig1, error) { return onPlan(o, planFigure1) }

func planFigure1(p *plan) func() (*Fig1, error) {
	// WINDOW replays the whole Figure 1 lane plan (the capacity sweep,
	// then the ablations); the penalty workloads only the machine's
	// configuration and the one-set ablation.
	lanes := pmms.LegacyLanes()
	penaltyBenchmarks := []progs.Benchmark{progs.Window1, progs.Puzzle8, progs.BUP3}
	cells := make([]string, len(penaltyBenchmarks))
	runs := make([]*planRun, len(penaltyBenchmarks))
	sweeps := make([]*pmms.Sweeper, len(penaltyBenchmarks))
	for i, b := range penaltyBenchmarks {
		cfgs := lanes[pmms.LanePSI : pmms.LaneOneSet+1]
		if i == 0 {
			cfgs = lanes
		}
		cells[i] = "fig1/" + b.Name
		runs[i] = p.psi(cells[i], b, core.Features{})
		sweeps[i] = pmms.NewSweeper(cfgs)
		runs[i].sweep(sweeps[i])
	}
	return func() (*Fig1, error) {
		ok, err := cellRows(p.o, "figure1", cells, func(i int) (int, error) { return i, runs[i].err })
		if err != nil {
			return nil, err
		}
		if len(ok) == 0 || ok[0] != 0 {
			// Degraded: the WINDOW sweep carries the capacity curve and
			// the ablation points — without it there is no figure to
			// report.
			return nil, nil
		}
		win := sweeps[0]
		f := &Fig1{Workload: progs.Window1.Name}
		for i := 0; i < pmms.SweepLanes; i++ {
			f.Points = append(f.Points, win.PointAt(i))
		}
		f.TwoSet8K = win.Improvement(pmms.LanePSI)
		// The paper compares "two 4K-word sets" (the machine) against
		// "one 4K-word set": half the capacity, direct-mapped.
		f.OneSet8K = win.Improvement(pmms.LaneOneSet)
		f.StoreThrough = win.Improvement(pmms.LaneStoreThrough)

		// A degraded penalty workload is skipped: the curve survives
		// without it.
		f.OneSetPenalty = map[string]float64{}
		for _, i := range ok {
			s := sweeps[i]
			two, one := s.Improvement(0), s.Improvement(1)
			if i == 0 {
				two, one = s.Improvement(pmms.LanePSI), s.Improvement(pmms.LaneOneSet)
			}
			name := penaltyBenchmarks[i].Name
			f.OneSetPenalty[name] = two - one
			f.PenaltyOrder = append(f.PenaltyOrder, name)
		}
		return f, nil
	}
}

// ---- Table 6 -------------------------------------------------------------

// T6 is the work-file access-mode measurement for one workload.
type T6 struct {
	Workload string         `json:"workload"`
	Usage    mapper.WFUsage `json:"usage"`
}

// Table6With measures the dynamic work-file access modes (the paper
// shows BUP; other programs give close results). The machine's own
// counters of the BUP run the tables read hold what MAP folds from the
// run's trace (mapper.Analyze), so no trace is materialized and no sink
// is attached. Under KeepGoing a failed run degrades the whole section
// (it is a single measurement): the table is reported as nil and the
// failure recorded.
func Table6With(o Options) (*T6, error) { return onPlan(o, planTable6) }

func planTable6(p *plan) func() (*T6, error) {
	cell := "table6/" + progs.BUP3.Name
	r := p.psi(cell, progs.BUP3, core.Features{})
	return func() (*T6, error) {
		if r.err != nil {
			if p.o.KeepGoing {
				p.o.degrade("table6", cell, r.err)
				return nil, nil
			}
			return nil, &CellError{Cell: cell, Err: r.err}
		}
		s := &r.stats
		u := mapper.WFUsage{Steps: s.Steps, Counts: [3][micro.NumWFModes]int64{s.Src1, s.Src2, s.Dest}}
		return &T6{Workload: progs.BUP3.Name, Usage: u}, nil
	}
}

// ---- Table 7 -------------------------------------------------------------

// T7Col is the branch-operation distribution for one workload.
type T7Col struct {
	Name   string                      `json:"name"`
	Rates  [micro.NumBranchOps]float64 `json:"rates"`  // percent of steps, Table 7 row order
	Branch float64                     `json:"branch"` // total non-nop percent
	Data   float64                     `json:"data"`   // branch steps with data manipulation (percent of steps)
}

// Table7With measures the dynamic branch-field operations for the
// paper's three programs.
func Table7With(o Options) ([]T7Col, error) { return onPlan(o, planTable7) }

func planTable7(p *plan) func() ([]T7Col, error) {
	set := []progs.Benchmark{progs.BUP3, progs.Window1, progs.Puzzle8}
	return psiRows(p, "table7", set, func(b progs.Benchmark, r *planRun) T7Col {
		s := &r.stats
		c := T7Col{Name: b.Name}
		for op := micro.BranchOp(0); op < micro.NumBranchOps; op++ {
			c.Rates[op] = s.BranchRatio(op) * 100
			if !op.IsNop() {
				c.Branch += c.Rates[op]
			}
		}
		if s.Steps > 0 {
			c.Data = float64(s.BranchData) / float64(s.Steps) * 100
		}
		return c
	})
}

// TraceFor produces a COLLECT trace of a benchmark (for the CLI tools).
func TraceFor(b progs.Benchmark) (*trace.Log, error) {
	r, err := RunPSI(b, true)
	if err != nil {
		return nil, err
	}
	t := r.Trace
	r.Release()
	return t, nil
}
