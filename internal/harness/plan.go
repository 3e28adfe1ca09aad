package harness

import (
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dec10"
	"repro/internal/engine"
	"repro/internal/micro"
	"repro/internal/obs"
	"repro/internal/pmms"
	"repro/internal/progs"
	"repro/internal/word"
)

// A plan is the set of distinct simulations some evaluation sections
// read. Each section declares the runs its cells need (and attaches its
// cache sweepers to them), returning a view; the plan executes every
// distinct run once on one worker pool, sweeping runs first, then
// longest first; then each view renders its rows from the finished
// runs. EvaluationWith puts all ten sections on one plan, so a program
// that five tables read is simulated once; a standalone Table*With puts
// only its own section on a plan.
//
// Sharing one run among cells is exact. Runs are deterministic,
// sweepers only observe the memory accesses, and a fault plan's
// injector does not depend on the cell label (fault.Plan.New), so every
// cell that reads a run would have seen the same numbers, or the same
// error, from a run of its own. Only whether the plan matches the cell's label can differ
// between cells, so that is part of the key.
type plan struct {
	o    Options
	runs []*planRun
	byID map[runKey]*planRun
}

// runKey identifies one distinct simulation.
type runKey struct {
	bench string
	feat  core.Features
	dec   bool // the DEC-10 baseline instead of the PSI machine
	fault bool // o.Fault matches the label of the cells that read it
}

// planRun is one distinct simulation and, once the plan has executed,
// what the views read of it.
type planRun struct {
	key   runKey
	b     progs.Benchmark
	label string // the first requesting cell: heartbeats and spans
	row   int64  // trace row of its spans: declaration order, from 1

	sweeps []*pmms.Sweeper // fed the run's memory accesses, in attach order

	err        error
	stats      micro.Stats
	area       [5]cache.AreaStats
	total      cache.AreaStats
	timeNS     int64
	inferences int64
}

func newPlan(o Options) *plan { return &plan{o: o, byID: map[runKey]*planRun{}} }

// psi requests the PSI run of b under feat that cell reads.
func (p *plan) psi(cell string, b progs.Benchmark, feat core.Features) *planRun {
	return p.need(cell, b, runKey{
		bench: b.Name,
		feat:  feat,
		fault: p.o.Fault != nil && p.o.Fault.Matches(cell),
	})
}

// dec requests the DEC-10 baseline run of b that cell reads. Fault
// plans inject into the PSI machine only.
func (p *plan) dec(cell string, b progs.Benchmark) *planRun {
	return p.need(cell, b, runKey{bench: b.Name, dec: true})
}

func (p *plan) need(cell string, b progs.Benchmark, k runKey) *planRun {
	if r := p.byID[k]; r != nil {
		return r
	}
	r := &planRun{key: k, b: b, label: cell, row: int64(len(p.runs) + 1)}
	p.runs = append(p.runs, r)
	p.byID[k] = r
	return r
}

// sweep attaches a cache sweeper to the run: it is fed the run's memory
// accesses and, at run end, its cycle count.
func (r *planRun) sweep(s *pmms.Sweeper) { r.sweeps = append(r.sweeps, s) }

// lanes counts the cache configurations the run's sweepers replay.
func (r *planRun) lanes() int {
	n := 0
	for _, s := range r.sweeps {
		n += s.Lanes()
	}
	return n
}

// feed returns the access sink that drives the run's sweepers (nil
// without any). Predicate context is forwarded only when a sweeper
// attributes misses to predicates, so the other sweeping runs skip the
// per-instruction predicate lookup.
func (r *planRun) feed() micro.AccessSink {
	if len(r.sweeps) == 0 {
		return nil
	}
	f := sweepFeed(r.sweeps)
	for _, s := range r.sweeps {
		if s.RefLane() >= 0 {
			return predSweepFeed{f}
		}
	}
	return f
}

// sweepFeed fans a run's memory accesses out to its sweepers.
type sweepFeed []*pmms.Sweeper

func (f sweepFeed) Access(op micro.CacheOp, a word.Addr) {
	for _, s := range f {
		s.Access(op, a)
	}
}

// predSweepFeed is a sweepFeed that also forwards predicate-context
// switches.
type predSweepFeed struct{ sweepFeed }

func (f predSweepFeed) EnterPredicate(id int) {
	for _, s := range f.sweepFeed {
		s.EnterPredicate(id)
	}
}

// schedule orders the plan's runs by a static hint taken from the plan
// itself, needing no measurement: runs that feed more sweep lanes first
// — a sweep's host cost is a multiple of the run's and shows in no
// paper time — then longest first by the paper's PSI time, so no long
// run starts behind the short ones. Views read results by key, so the
// order never reaches the output.
func (p *plan) schedule() []*planRun {
	order := append([]*planRun(nil), p.runs...)
	sort.SliceStable(order, func(i, j int) bool {
		if li, lj := order[i].lanes(), order[j].lanes(); li != lj {
			return li > lj
		}
		return order[i].b.PaperPSIMS > order[j].b.PaperPSIMS
	})
	return order
}

// execute runs every distinct simulation of the plan once, in schedule
// order.
func (p *plan) execute() {
	parMapErrs(p.o.workers(), p.schedule(), func(r *planRun) (struct{}, error) {
		if p.o.Spans == nil {
			r.err = p.run(r)
			return struct{}{}, nil
		}
		// One span per run, one trace row per run, named by its label,
		// with the outcome class in args.
		done := p.o.Spans.Start(r.label, "cell", r.row)
		r.err = p.run(r)
		args := map[string]string{"status": "ok"}
		if r.err != nil {
			args["status"] = engine.ClassName(r.err)
		}
		if r.key.dec {
			args["engine"] = dec10.EngineName
		}
		done(args)
		return struct{}{}, nil
	})
}

// run simulates r and keeps what the views read of it.
func (p *plan) run(r *planRun) error {
	if r.key.dec {
		d, err := runDECWith(p.o, r.b)
		if err != nil {
			return err
		}
		r.timeNS = d.TimeNS()
		return nil
	}
	c, err := Compile(r.b)
	if err != nil {
		return err
	}
	ro := runOpts{
		feat:     r.key.feat,
		access:   r.feed(),
		cell:     r.label,
		progress: p.o.Progress,
		every:    p.o.ProgressEvery,
		ctx:      p.o.Ctx,
		maxSteps: p.o.MaxSteps,
		spans:    p.o.Spans,
		spanTID:  r.row,
	}
	if r.key.fault {
		ro.fault = p.o.Fault
	}
	start := time.Now()
	pr, err := c.run(ro)
	if err != nil {
		return err
	}
	m := pr.Machine
	r.stats = *m.Stats()
	if ch := m.Cache(); ch != nil {
		r.area, r.total = ch.Area, ch.Total
	}
	r.timeNS, r.inferences = m.TimeNS(), m.Inferences()
	pr.Release()
	wall := time.Since(start).Nanoseconds()
	for _, s := range r.sweeps {
		s.AddCycles(r.stats.Steps)
		obs.RecordSweep(s.Lanes(), s.Cycles(), wall)
	}
	return nil
}

// ms is the run's simulated time in milliseconds.
func (r *planRun) ms() float64 { return float64(r.timeNS) / 1e6 }

// onPlan computes one section on a plan of its own: declare, execute,
// render.
func onPlan[T any](o Options, section func(*plan) func() (T, error)) (T, error) {
	p := newPlan(o)
	view := section(p)
	p.execute()
	return view()
}

// psiRows declares one default-feature PSI run per benchmark of a
// section, labelled section/name, and returns the view that renders each
// finished run as one row.
func psiRows[R any](p *plan, section string, set []progs.Benchmark, row func(progs.Benchmark, *planRun) R) func() ([]R, error) {
	cells := make([]string, len(set))
	runs := make([]*planRun, len(set))
	for i, b := range set {
		cells[i] = section + "/" + b.Name
		runs[i] = p.psi(cells[i], b, core.Features{})
	}
	return func() ([]R, error) {
		return cellRows(p.o, section, cells, func(i int) (R, error) {
			if err := runs[i].err; err != nil {
				var zero R
				return zero, err
			}
			return row(set[i], runs[i]), nil
		})
	}
}
