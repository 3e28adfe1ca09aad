package harness

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/progs"
)

// AblationRow reports one machine variant's cost on one workload.
type AblationRow struct {
	Feature  string  `json:"feature"`
	Workload string  `json:"workload"`
	BaseMS   float64 `json:"base_ms"`   // the full PSI configuration
	VarMS    float64 `json:"var_ms"`    // with the feature ablated (or PSI-II enabled)
	DeltaPct float64 `json:"delta_pct"` // (VarMS/BaseMS - 1) * 100; negative = variant faster
}

// ablationVariants lists the design choices the paper's data speaks to.
func ablationVariants() []struct {
	name string
	feat core.Features
} {
	return []struct {
		name string
		feat core.Features
	}{
		{"no frame buffers", core.Features{NoFrameBuffers: true}},
		{"no control-frame buffers", core.Features{NoCtrlBuffers: true}},
		{"no last-call optimization", core.Features{NoLCO: true}},
		{"no Write-Stack command", core.Features{NoWriteStack: true}},
		{"no trail buffer", core.Features{NoTrailBuffer: true}},
		{"PSI-II indexing", core.Features{Indexing: true}},
	}
}

// ablationWorkloads picks a spread of styles: deterministic list code,
// search, and the OO window system.
func ablationWorkloads() []progs.Benchmark {
	return []progs.Benchmark{progs.NReverse, progs.QueensFirst, progs.BUP2, progs.Window1}
}

// timeFeatMS executes a benchmark under a feature configuration and
// reports the simulated time. The program comes from the compile cache
// (features change the machine, never the code image) and the machine
// goes back to the pool.
func timeFeatMS(o Options, cell string, b progs.Benchmark, feat core.Features) (float64, error) {
	c, err := Compile(b)
	if err != nil {
		return 0, err
	}
	r, err := c.run(runOpts{feat: feat, cell: cell, progress: o.Progress, every: o.ProgressEvery, ctx: o.Ctx, maxSteps: o.MaxSteps, fault: o.Fault})
	if err != nil {
		return 0, err
	}
	ms := float64(r.Machine.TimeNS()) / 1e6
	r.Release()
	return ms, nil
}

// Ablations measures every feature variant on every ablation workload.
func Ablations() ([]AblationRow, error) { return AblationsWith(Options{}) }

// AblationsWith is Ablations under explicit worker options: the base
// runs fan out first, then every (workload, variant) cell. Under
// KeepGoing a failed base run drops the whole workload (its deltas have
// no denominator) and a failed variant run drops that row; every
// failure is recorded in the degraded log.
func AblationsWith(o Options) ([]AblationRow, error) {
	ws := ablationWorkloads()
	vs := ablationVariants()
	baseMS, baseErrs := parMapErrs(o.workers(), ws, func(b progs.Benchmark) (float64, error) {
		return timeFeatMS(o, "ablate/base/"+b.Name, b, core.Features{})
	})
	var joined []error
	baseOK := make([]bool, len(ws))
	for i, err := range baseErrs {
		if err == nil {
			baseOK[i] = true
			continue
		}
		cerr := &CellError{Cell: "ablate/base/" + ws[i].Name, Err: err}
		if o.KeepGoing {
			o.degrade("ablations", cerr.Cell, err)
		} else {
			joined = append(joined, cerr)
		}
	}
	if len(joined) > 0 {
		return nil, errors.Join(joined...)
	}
	type cell struct{ w, v int }
	cells := make([]cell, 0, len(ws)*len(vs))
	for wi := range ws { // workload-major, the serial row order
		if !baseOK[wi] {
			continue
		}
		for vi := range vs {
			cells = append(cells, cell{wi, vi})
		}
	}
	varMS, varErrs := parMapErrs(o.workers(), cells, func(c cell) (float64, error) {
		return timeFeatMS(o, "ablate/"+vs[c.v].name+"/"+ws[c.w].Name, ws[c.w], vs[c.v].feat)
	})
	rows := make([]AblationRow, 0, len(cells))
	for i, c := range cells {
		if err := varErrs[i]; err != nil {
			cerr := &CellError{Cell: "ablate/" + vs[c.v].name + "/" + ws[c.w].Name, Err: err}
			if o.KeepGoing {
				o.degrade("ablations", cerr.Cell, err)
				continue
			}
			joined = append(joined, cerr)
			continue
		}
		rows = append(rows, AblationRow{
			Feature:  vs[c.v].name,
			Workload: ws[c.w].Name,
			BaseMS:   baseMS[c.w],
			VarMS:    varMS[i],
			DeltaPct: (varMS[i]/baseMS[c.w] - 1) * 100,
		})
	}
	if len(joined) > 0 {
		return nil, errors.Join(joined...)
	}
	return rows, nil
}

// FormatAblations renders the ablation study.
func FormatAblations(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation study: simulated time change per removed feature (+%% = slower without it)\n")
	fmt.Fprintf(&b, "%-26s %-16s %9s %9s %8s\n", "variant", "workload", "base(ms)", "var(ms)", "delta")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s %-16s %9.1f %9.1f %+7.1f%%\n",
			r.Feature, r.Workload, r.BaseMS, r.VarMS, r.DeltaPct)
	}
	return b.String()
}
