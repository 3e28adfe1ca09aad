package obs

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/kl0"
	"repro/internal/micro"
)

// Profiler is a micro.ProfileSink: the simulated-workload profiler. The
// interpreter core charges it, at every predicate switch and at every
// Solutions.Run boundary, with the cycles, memory accesses and cache
// misses the predicate it leaves executed since the previous charge, so
// the bucket totals always sum to exactly the run's micro.Stats.Steps
// and cache counters. It is not a per-cycle tap: the machine keeps its
// fast accounting mode with a profiler attached.
//
// Attribution rules (see DESIGN.md "Observability"):
//   - argument fetch for a call charges the caller (the cycles execute
//     its clause body);
//   - choice-point creation, environment frames and head unification
//     charge the callee (they execute on its behalf);
//   - built-in bodies charge the predicate that invoked them;
//   - query pseudo-clauses and runtime metacall stubs charge "<main>".
type Profiler struct {
	buckets []predBucket // index = predicate id + 1 (0 = NoPredicate)
}

type predBucket struct {
	cycles int64
	mem    int64 // memory accesses (cycles carrying a cache command)
	misses int64
}

// NewProfiler returns a profiler ready to be passed as core.Config.Profile.
func NewProfiler() *Profiler { return &Profiler{} }

// Charge implements micro.ProfileSink.
func (p *Profiler) Charge(pred int, cycles, accesses, misses int64) {
	b := p.bucket(pred)
	b.cycles += cycles
	b.mem += accesses
	b.misses += misses
}

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
func (p *Profiler) Reset() { clear(p.buckets) }

// CycleProfiler is the per-cycle reference the Profiler is checked
// against: attached as core.Config.Trace, it counts every cycle and
// memory cycle from the cycle stream, follows the predicate switches
// through EnterPredicate and counts misses through CacheMiss, charging
// each to the predicate current when it arrives. It shares nothing with
// the machine's charging but the predicate notion, so equal profiles
// show the charges are exact. It is a per-cycle tap (the run accounts
// in exact mode), for tests and the `cmd/bench obs` gate.
type CycleProfiler struct {
	Profiler
	cur int
}

// NewCycleProfiler returns a reference ready to be passed as
// core.Config.Trace.
func NewCycleProfiler() *CycleProfiler { return &CycleProfiler{cur: micro.NoPredicate} }

// EnterPredicate implements micro.PredTracker.
func (r *CycleProfiler) EnterPredicate(id int) { r.cur = id }

// Cycle implements micro.Sink.
func (r *CycleProfiler) Cycle(c micro.Cycle) {
	var mem int64
	if c.Cache != micro.OpNone {
		mem = 1
	}
	r.Charge(r.cur, 1, mem, 0)
}

// CacheMiss implements micro.MissSink.
func (r *CycleProfiler) CacheMiss() { r.Charge(r.cur, 0, 0, 1) }

// Reset clears the reference for another run.
func (r *CycleProfiler) Reset() {
	r.Profiler.Reset()
	r.cur = micro.NoPredicate
}

// PredProfile is the attribution of one predicate in a RunProfile.
type PredProfile struct {
	Name        string  `json:"name"` // functor/arity, or "<main>"
	Cycles      int64   `json:"cycles"`
	Share       float64 `json:"share"` // fraction of total cycles
	MemAccesses int64   `json:"mem_accesses"`
	CacheMisses int64   `json:"cache_misses"`
}

// RunProfile is a per-predicate flat profile of one simulated run.
type RunProfile struct {
	Workload    string        `json:"workload,omitempty"`
	TotalCycles int64         `json:"total_cycles"`
	Entries     []PredProfile `json:"entries"` // cycles desc, then name asc
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
		rp.TotalCycles += b.cycles
		rp.Entries = append(rp.Entries, e)
	}
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
	fmt.Fprintf(w, " (%d micro-cycles, %d predicates)\n", rp.TotalCycles, len(rp.Entries))
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
