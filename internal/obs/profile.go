package obs

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/kl0"
	"repro/internal/micro"
	"repro/internal/telemetry"
)

// Profiler is a micro.PredSink that attributes the cycle stream to the
// predicate executing it. The interpreter core announces predicate
// switches via EnterPredicate; every cycle between two switches is
// charged to the announced predicate, so the bucket totals always sum
// to exactly the run's micro.Stats.Steps.
//
// Attribution rules (see DESIGN.md "Observability"):
//   - argument fetch for a call charges the caller (the cycles execute
//     its clause body);
//   - choice-point creation, environment frames and head unification
//     charge the callee (they execute on its behalf);
//   - built-in bodies charge the predicate that invoked them;
//   - query pseudo-clauses and runtime metacall stubs charge "<main>".
type Profiler struct {
	cur     int
	buckets []predBucket // index = predicate id + 1 (0 = NoPredicate)
}

type predBucket struct {
	cycles  int64
	modules [micro.NumModules]int64
	mem     int64 // cycles carrying a cache command
	misses  int64
}

// NewProfiler returns a profiler ready to be passed as core.Config.Profile.
func NewProfiler() *Profiler {
	return &Profiler{cur: micro.NoPredicate}
}

// EnterPredicate implements micro.PredSink.
func (p *Profiler) EnterPredicate(id int) { p.cur = id }

// Cycle implements micro.Sink.
func (p *Profiler) Cycle(c micro.Cycle) {
	b := p.bucket(p.cur)
	b.cycles++
	if c.Module < micro.NumModules {
		b.modules[c.Module]++
	}
	if c.Cache != micro.OpNone {
		b.mem++
	}
}

// CacheMiss implements micro.MissSink: the miss is charged to the
// predicate whose cycle issued the memory access.
func (p *Profiler) CacheMiss() { p.bucket(p.cur).misses++ }

func (p *Profiler) bucket(id int) *predBucket {
	i := id + 1
	if i < 0 {
		i = 0
	}
	for i >= len(p.buckets) {
		p.buckets = append(p.buckets, predBucket{})
	}
	return &p.buckets[i]
}

// Reset clears the collected attribution so the profiler can be reused
// for another run.
func (p *Profiler) Reset() {
	p.cur = micro.NoPredicate
	for i := range p.buckets {
		p.buckets[i] = predBucket{}
	}
}

// PredProfile is the attribution of one predicate in a RunProfile.
type PredProfile struct {
	Name        string  `json:"name"` // functor/arity, or "<main>"
	Cycles      int64   `json:"cycles"`
	Share       float64 `json:"share"` // fraction of total cycles
	MemAccesses int64   `json:"mem_accesses"`
	CacheMisses int64   `json:"cache_misses"`
	// ModuleSteps orders cycles by firmware module (Table 2 rows).
	// Omitted in sampled profiles: a sample carries no module context.
	ModuleSteps []NamedCount `json:"module_steps,omitempty"`
}

// RunProfile is a per-predicate flat profile of one simulated run.
type RunProfile struct {
	Workload    string `json:"workload,omitempty"`
	TotalCycles int64  `json:"total_cycles"`
	// Sampled marks a statistical profile (telemetry.SamplingProfiler,
	// no per-cycle tap): totals are exact, but each predicate's
	// cycles are a stride-sampled estimate; SampleStride and Samples
	// quantify the resolution.
	Sampled      bool          `json:"sampled,omitempty"`
	SampleStride int64         `json:"sample_stride,omitempty"`
	Samples      int64         `json:"samples,omitempty"`
	Entries      []PredProfile `json:"entries"` // cycles desc, then name asc
}

// Profile resolves the collected buckets against the program's procedure
// table and returns the sorted flat profile. Predicates that never
// executed a cycle are omitted.
func (p *Profiler) Profile(prog *kl0.Program, workload string) *RunProfile {
	rp := &RunProfile{Workload: workload}
	for i := range p.buckets {
		b := &p.buckets[i]
		if b.cycles == 0 && b.misses == 0 {
			continue
		}
		e := PredProfile{
			Name:        prog.ProcName(i - 1),
			Cycles:      b.cycles,
			MemAccesses: b.mem,
			CacheMisses: b.misses,
		}
		for m := micro.Module(0); m < micro.NumModules; m++ {
			e.ModuleSteps = append(e.ModuleSteps, NamedCount{Name: m.String(), Count: b.modules[m]})
		}
		rp.TotalCycles += b.cycles
		rp.Entries = append(rp.Entries, e)
	}
	rp.finish()
	return rp
}

// SampledProfile resolves a sampling profiler's per-predicate cycle
// attribution against the program's procedure table, in the same shape
// as Profiler.Profile so formatting and reporting handle both. The
// memory and module columns stay empty: a sample carries no cache or
// module context — that breakdown is the exact profiler's province.
func SampledProfile(sp *telemetry.SamplingProfiler, prog *kl0.Program, workload string) *RunProfile {
	rp := &RunProfile{
		Workload:     workload,
		Sampled:      true,
		SampleStride: sp.Stride(),
		Samples:      sp.Samples(),
	}
	sp.Each(func(pred int, cycles int64) {
		if cycles == 0 {
			return
		}
		rp.TotalCycles += cycles
		rp.Entries = append(rp.Entries, PredProfile{
			Name:   prog.ProcName(pred),
			Cycles: cycles,
		})
	})
	rp.finish()
	return rp
}

// finish computes the shares and applies the canonical ordering
// (cycles desc, then name asc).
func (rp *RunProfile) finish() {
	for i := range rp.Entries {
		if rp.TotalCycles > 0 {
			rp.Entries[i].Share = float64(rp.Entries[i].Cycles) / float64(rp.TotalCycles)
		}
	}
	sort.Slice(rp.Entries, func(i, j int) bool {
		a, b := &rp.Entries[i], &rp.Entries[j]
		if a.Cycles != b.Cycles {
			return a.Cycles > b.Cycles
		}
		return a.Name < b.Name
	})
}

// Format writes the flat profile as aligned text, top-N entries (all of
// them when topN <= 0). The layout mirrors pprof's -top output: share,
// cumulative share, cycles, memory behaviour, predicate.
func (rp *RunProfile) Format(w io.Writer, topN int) {
	n := len(rp.Entries)
	if topN > 0 && topN < n {
		n = topN
	}
	fmt.Fprintf(w, "Simulated profile")
	if rp.Workload != "" {
		fmt.Fprintf(w, ": %s", rp.Workload)
	}
	if rp.Sampled {
		fmt.Fprintf(w, " (%d micro-cycles, %d predicates; sampled, stride %d, %d samples)\n",
			rp.TotalCycles, len(rp.Entries), rp.SampleStride, rp.Samples)
	} else {
		fmt.Fprintf(w, " (%d micro-cycles, %d predicates)\n", rp.TotalCycles, len(rp.Entries))
	}
	fmt.Fprintf(w, "%8s %8s %12s %12s %10s  %s\n",
		"flat%", "cum%", "cycles", "mem", "misses", "predicate")
	var cum int64
	for _, e := range rp.Entries[:n] {
		cum += e.Cycles
		cumShare := 0.0
		if rp.TotalCycles > 0 {
			cumShare = float64(cum) / float64(rp.TotalCycles)
		}
		fmt.Fprintf(w, "%7.2f%% %7.2f%% %12d %12d %10d  %s\n",
			e.Share*100, cumShare*100, e.Cycles, e.MemAccesses, e.CacheMisses, e.Name)
	}
	if n < len(rp.Entries) {
		var rest int64
		for _, e := range rp.Entries[n:] {
			rest += e.Cycles
		}
		fmt.Fprintf(w, "%8s %8s %12d %12s %10s  ... %d more\n",
			"", "", rest, "", "", len(rp.Entries)-n)
	}
}
