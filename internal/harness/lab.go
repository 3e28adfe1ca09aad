package harness

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/pmms"
	"repro/internal/progs"
)

// ---- Cache-architecture lab ------------------------------------------------

// maxMissCauses bounds the "top miss causes" block of the lab report:
// the predicates past the first eight carry the long tail of the
// distribution and would only pad the report.
const maxMissCauses = 8

// LabLane is one grid lane of the cache lab: a cache configuration, its
// Figure 1 metrics on the lab workload, and its classified misses.
type LabLane struct {
	Config      string             `json:"config"`
	Words       int                `json:"words"`
	Ways        int                `json:"ways"`
	Replacement string             `json:"replacement"`
	Improvement float64            `json:"improvement"`
	HitRatio    float64            `json:"hit_ratio"`
	Breakdown   pmms.MissBreakdown `json:"miss_breakdown"`
}

// MissCause attributes part of the reference lane's misses to one
// predicate of the lab workload ("<main>" covers query glue and any
// cycles outside predicate context).
type MissCause struct {
	Predicate string `json:"predicate"`
	pmms.MissBreakdown
}

// CacheLab is the cache-architecture lab section: a replacement-policy x
// capacity x associativity grid swept over one workload's cycle stream
// in a single pass, every miss classified (first-touch / capacity /
// conflict), and the reference lane's misses attributed to the
// predicates that caused them.
type CacheLab struct {
	Workload  string      `json:"workload"`
	RefConfig string      `json:"ref_config"`
	Lanes     []LabLane   `json:"lanes"`
	TopCauses []MissCause `json:"top_miss_causes"`
}

// CacheLabWith computes the cache lab over the default grid on the
// Figure 1 workload (WINDOW), with the machine's own configuration
// (cache.PSI) as the reference lane for miss attribution.
func CacheLabWith(o Options) (*CacheLab, error) {
	return CacheLabFor(o, pmms.DefaultGrid(), progs.Window1)
}

// CacheLabFor computes the cache lab for an explicit grid and workload
// (the CLI's -grid flag parses into g). The whole grid rides the run of
// the workload the tables read: the Sweeper is fed the machine's memory
// accesses plus the predicate context needed for miss attribution. The reference lane
// is the machine's configuration when the grid contains it, lane 0
// otherwise. Under KeepGoing a failed run degrades the whole section (it
// is a single measurement), like Table 6.
func CacheLabFor(o Options, g pmms.Grid, b progs.Benchmark) (*CacheLab, error) {
	return onPlan(o, func(p *plan) func() (*CacheLab, error) { return planCacheLab(p, g, b) })
}

func planCacheLab(p *plan, g pmms.Grid, b progs.Benchmark) func() (*CacheLab, error) {
	cfgs := g.Configs()
	if len(cfgs) == 0 {
		return func() (*CacheLab, error) {
			return nil, fmt.Errorf("cache lab: the grid has no valid configuration")
		}
	}
	ref := 0
	for i, cfg := range cfgs {
		if cfg == cache.PSI {
			ref = i
			break
		}
	}
	s := pmms.NewSweeper(cfgs)
	s.Classify(ref)
	cell := "lab/" + b.Name
	r := p.psi(cell, b, core.Features{})
	r.sweep(s)
	return func() (*CacheLab, error) {
		if r.err != nil {
			if p.o.KeepGoing {
				p.o.degrade("cache_lab", cell, r.err)
				return nil, nil
			}
			return nil, &CellError{Cell: cell, Err: r.err}
		}
		c, err := Compile(b)
		if err != nil {
			return nil, err
		}
		lab := &CacheLab{Workload: b.Name, RefConfig: cfgs[ref].String()}
		for i, cfg := range cfgs {
			lab.Lanes = append(lab.Lanes, LabLane{
				Config:      cfg.String(),
				Words:       cfg.Words,
				Ways:        cfg.Ways(),
				Replacement: cfg.Replacement.String(),
				Improvement: s.Improvement(i),
				HitRatio:    s.Cache(i).HitRatio(),
				Breakdown:   s.Misses(i),
			})
		}
		for _, pm := range s.PredMisses() {
			if len(lab.TopCauses) == maxMissCauses {
				break
			}
			lab.TopCauses = append(lab.TopCauses, MissCause{
				Predicate:     c.Prog.ProcName(pm.Pred),
				MissBreakdown: pm.MissBreakdown,
			})
		}
		return lab, nil
	}
}

// FormatCacheLab renders the lab grid in the Figure 1 style: one line
// per lane with a bar scaled to the best improvement, then the
// trace-grounded "top miss causes" block for the reference lane. A nil
// lab (a degraded keep-going evaluation) renders as a placeholder.
func FormatCacheLab(l *CacheLab) string {
	if l == nil {
		return "Cache lab: degraded — the grid workload failed (see degraded section)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Cache lab: replacement policy x capacity x associativity (workload %s)\n", l.Workload)
	fmt.Fprintf(&b, "%-8s %8s %5s %14s %10s %12s %10s %10s\n",
		"policy", "words", "ways", "improvement(%)", "hit-ratio", "first-touch", "capacity", "conflict")
	var max float64
	for _, ln := range l.Lanes {
		if ln.Improvement > max {
			max = ln.Improvement
		}
	}
	for _, ln := range l.Lanes {
		bar := ""
		if max > 0 {
			bar = strings.Repeat("#", int(ln.Improvement/max*24+0.5))
		}
		fmt.Fprintf(&b, "%-8s %8d %5d %14.1f %10.3f %12d %10d %10d  %s\n",
			ln.Replacement, ln.Words, ln.Ways, ln.Improvement, ln.HitRatio,
			ln.Breakdown.FirstTouch, ln.Breakdown.Capacity, ln.Breakdown.Conflict, bar)
	}
	fmt.Fprintf(&b, "\nTop miss causes (reference lane %s):\n", l.RefConfig)
	fmt.Fprintf(&b, "  %-20s %10s %12s %10s %10s\n",
		"predicate", "misses", "first-touch", "capacity", "conflict")
	for _, mc := range l.TopCauses {
		fmt.Fprintf(&b, "  %-20s %10d %12d %10d %10d\n",
			mc.Predicate, mc.Misses, mc.FirstTouch, mc.Capacity, mc.Conflict)
	}
	return b.String()
}
