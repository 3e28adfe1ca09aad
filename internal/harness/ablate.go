package harness

import (
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

// AblationsWith measures every feature variant on every ablation
// workload. The base
// runs are the default-feature runs the tables read. Under KeepGoing a
// failed base run drops the whole workload (its deltas have no
// denominator) and a failed variant run drops that row; every failure is
// recorded in the degraded log.
func AblationsWith(o Options) ([]AblationRow, error) { return onPlan(o, planAblations) }

func planAblations(p *plan) func() ([]AblationRow, error) {
	ws := ablationWorkloads()
	vs := ablationVariants()
	baseCells := make([]string, len(ws))
	base := make([]*planRun, len(ws))
	for wi, b := range ws {
		baseCells[wi] = "ablate/base/" + b.Name
		base[wi] = p.psi(baseCells[wi], b, core.Features{})
	}
	type cell struct {
		w, v  int
		label string
		run   *planRun
	}
	var all []cell
	for wi, b := range ws { // workload-major, the row order
		for vi, v := range vs {
			label := "ablate/" + v.name + "/" + b.Name
			all = append(all, cell{wi, vi, label, p.psi(label, b, v.feat)})
		}
	}
	return func() ([]AblationRow, error) {
		_, err := cellRows(p.o, "ablations", baseCells, func(i int) (struct{}, error) { return struct{}{}, base[i].err })
		if err != nil {
			return nil, err
		}
		var cells []cell
		var labels []string
		for _, c := range all {
			if base[c.w].err == nil {
				cells = append(cells, c)
				labels = append(labels, c.label)
			}
		}
		return cellRows(p.o, "ablations", labels, func(i int) (AblationRow, error) {
			c := cells[i]
			if c.run.err != nil {
				return AblationRow{}, c.run.err
			}
			baseMS, varMS := base[c.w].ms(), c.run.ms()
			return AblationRow{
				Feature:  vs[c.v].name,
				Workload: ws[c.w].Name,
				BaseMS:   baseMS,
				VarMS:    varMS,
				DeltaPct: (varMS/baseMS - 1) * 100,
			}, nil
		})
	}
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
