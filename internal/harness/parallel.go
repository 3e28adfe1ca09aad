package harness

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// Options configures how the evaluation is computed. The zero value
// (Workers == 0) uses one worker per available CPU.
type Options struct {
	// Workers bounds the number of concurrently simulated machines.
	// 0 means runtime.GOMAXPROCS(0); 1 runs strictly serially. The
	// results are byte-identical either way — parallelism only changes
	// wall-clock time.
	Workers int

	// Progress, when non-nil, receives periodic heartbeats from every
	// simulated run, labelled with the first evaluation cell that reads
	// the run. The callback must be safe for concurrent use (parallel
	// workers share it) and must not block: it runs on the simulation
	// path. Heartbeats never touch the evaluation output, which stays
	// byte-identical whether or not they are enabled.
	Progress func(obs.Progress)

	// ProgressEvery sets the heartbeat period in simulated micro-cycles
	// (0 = core.DefaultProgressEvery).
	ProgressEvery int64

	// Ctx, when non-nil and cancelable, bounds every simulated run: a
	// deadline or cancellation surfaces as an engine.ErrDeadline /
	// engine.ErrCanceled run error. A nil or non-cancelable context
	// drives each run in a single unbounded step (the fast path), so
	// the evaluation output stays byte-identical.
	Ctx context.Context

	// MaxSteps overrides the per-run simulated step bound
	// (0 = the harness default of 4e9).
	MaxSteps int64

	// Fault, when non-nil, is a seeded fault-injection plan: every run
	// whose evaluation cell matches the plan's Only filter gets its own
	// deterministic injector (same plan + same cell = same fault). The
	// fault surfaces as a contained engine.ErrFault run error.
	Fault *fault.Plan

	// KeepGoing turns per-cell failures into degradation instead of
	// aborting the evaluation: the failing cell is dropped from its
	// section, recorded in Degraded, and every other cell still runs.
	// Degraded entries are appended in cell order, so the output stays
	// byte-identical for any worker count.
	KeepGoing bool

	// Degraded collects the degraded runs when KeepGoing is set.
	// EvaluationWith allocates one automatically; callers driving
	// sections individually supply their own to read the entries back.
	Degraded *DegradedLog

	// Spans, when non-nil, records a host-time span for every simulated
	// run of an evaluation (one trace row per run, named by the first
	// cell that reads it) and for single benchmark runs driven through
	// RunPSIWith. The resulting log exports as a Chrome trace-event
	// document (`psibench -trace-out`). Spans measure the host only;
	// evaluation output stays byte-identical.
	Spans *telemetry.SpanLog
}

func (o Options) maxSteps() int64 {
	if o.MaxSteps > 0 {
		return o.MaxSteps
	}
	return core.DefaultMaxSteps
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// parMapErrs applies fn to every item on up to workers goroutines and
// returns the results and the per-item errors in item order: every item
// runs, whatever the others return.
func parMapErrs[T, R any](workers int, items []T, fn func(T) (R, error)) ([]R, []error) {
	out := make([]R, len(items))
	errs := make([]error, len(items))
	if workers <= 1 || len(items) <= 1 {
		for i, it := range items {
			out[i], errs[i] = fn(it)
		}
		return out, errs
	}
	if workers > len(items) {
		workers = len(items)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				out[i], errs[i] = fn(items[i])
			}
		}()
	}
	wg.Wait()
	return out, errs
}

// CellError attributes a run error to the evaluation cell that produced
// it, so a failure inside a parallel fan-out still names its workload.
// It unwraps to the underlying error, keeping engine taxonomy
// classification (errors.Is) intact.
type CellError struct {
	Cell string
	Err  error
}

func (e *CellError) Error() string { return e.Cell + ": " + e.Err.Error() }
func (e *CellError) Unwrap() error { return e.Err }

// DegradedRun is one workload that failed under KeepGoing and was
// excluded from its section. The fields are deterministic for a given
// plan and worker count — no stacks, no timestamps — so degraded output
// stays byte-identical at any -j.
type DegradedRun struct {
	Section string `json:"section"` // e.g. "table1", "figure1", "ablations"
	Cell    string `json:"cell"`    // full cell label, e.g. "table1/nreverse (30)"
	Class   string `json:"class"`   // engine error class name, e.g. "fault"
	Error   string `json:"error"`   // single-line error text
}

// DegradedLog collects degraded runs across sections. It is safe for
// concurrent use, but the harness only appends from the section views,
// after every run has finished, in cell order, which is what keeps the
// entry order deterministic.
type DegradedLog struct {
	mu   sync.Mutex
	runs []DegradedRun
}

// NewDegradedLog returns an empty log.
func NewDegradedLog() *DegradedLog { return &DegradedLog{} }

func (l *DegradedLog) add(r DegradedRun) {
	telemetry.Default.Counter("psi_degraded_cells_total",
		"evaluation cells dropped under -keep-going").Inc()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.runs = append(l.runs, r)
}

// Runs returns the degraded runs recorded so far, in record order.
func (l *DegradedLog) Runs() []DegradedRun {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]DegradedRun, len(l.runs))
	copy(out, l.runs)
	return out
}

// degrade records one failed cell in the options' degraded log (if any).
func (o Options) degrade(section, cell string, err error) {
	if o.Degraded == nil {
		return
	}
	o.Degraded.add(DegradedRun{
		Section: section,
		Cell:    cell,
		Class:   engine.ClassName(err),
		Error:   err.Error(),
	})
}

// cellRows renders one section's cells, in cell order, from finished
// runs: row(i) is cell i's row, or the error of a run it reads. Every
// failure is attributed to its cell. Without KeepGoing all cell errors
// are joined in cell order and returned; with KeepGoing the failing cells
// are dropped, recorded in the degraded log in cell order, and the
// surviving rows returned. Views render in section order, which is what
// keeps the degraded log byte-identical at any worker count.
func cellRows[R any](o Options, section string, cells []string, row func(i int) (R, error)) ([]R, error) {
	var joined []error
	out := make([]R, 0, len(cells))
	for i, cell := range cells {
		r, err := row(i)
		if err == nil {
			out = append(out, r)
			continue
		}
		if o.KeepGoing {
			o.degrade(section, cell, err)
			continue
		}
		joined = append(joined, &CellError{Cell: cell, Err: err})
	}
	if len(joined) > 0 {
		return nil, errors.Join(joined...)
	}
	return out, nil
}
