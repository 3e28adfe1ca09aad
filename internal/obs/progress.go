package obs

import (
	"fmt"
	"io"
	"sync"
)

// Progress is one live heartbeat from a running simulation: the
// machine-level counters from core.Heartbeat plus the evaluation cell
// (table/workload) currently executing, when known.
type Progress struct {
	Cell       string // e.g. "table2/bup 3-stage", empty outside the harness
	Cycles     int64  // micro-cycles executed so far
	SimNS      int64  // simulated nanoseconds so far
	Inferences int64  // logical inferences so far
}

// MLIPS reports the mean simulated speed so far in millions of logical
// inferences per second.
func (p Progress) MLIPS() float64 {
	if p.SimNS == 0 {
		return 0
	}
	return float64(p.Inferences) / float64(p.SimNS) * 1000
}

// ProgressPrinter renders Progress events as single-line heartbeats on a
// writer (normally stderr, keeping stdout byte-identical). It is safe
// for concurrent use: parallel harness workers share one printer.
type ProgressPrinter struct {
	mu sync.Mutex
	w  io.Writer
}

// NewProgressPrinter returns a printer emitting heartbeats to w.
func NewProgressPrinter(w io.Writer) *ProgressPrinter {
	return &ProgressPrinter{w: w}
}

// Event renders one heartbeat. It implements the event-sink contract:
// callbacks must be cheap and must not block the simulation for long.
func (pp *ProgressPrinter) Event(p Progress) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if p.Cell != "" {
		fmt.Fprintf(pp.w, "psi: %s: %d cycles, %.1f sim-ms, %.3f MLIPS\n",
			p.Cell, p.Cycles, float64(p.SimNS)/1e6, p.MLIPS())
		return
	}
	fmt.Fprintf(pp.w, "psi: %d cycles, %.1f sim-ms, %.3f MLIPS\n",
		p.Cycles, float64(p.SimNS)/1e6, p.MLIPS())
}
