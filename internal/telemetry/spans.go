package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Span tracing: host-time slices of the simulator's own work (compile,
// session runs, harness cells), exported in the Chrome
// trace-event format so a run can be opened in Perfetto or
// chrome://tracing. Spans measure the host, not the simulation — they
// never touch simulated statistics, which stay byte-identical with
// tracing attached.

// Span is one complete ("ph":"X") trace event. Timestamps and durations
// are microseconds, relative to the owning SpanLog's start, per the
// trace-event format.
type Span struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Phase string            `json:"ph"`
	TS    int64             `json:"ts"`
	Dur   int64             `json:"dur"`
	PID   int64             `json:"pid"`
	TID   int64             `json:"tid"`
	Args  map[string]string `json:"args,omitempty"`
}

// Trace is the JSON-object form of the Chrome trace-event format — the
// exact document `-trace-out` writes.
type Trace struct {
	TraceEvents     []Span `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit,omitempty"`
}

// SpanLog collects spans from one process. Safe for concurrent use:
// parallel harness cells append from worker goroutines.
type SpanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewSpanLog returns an empty log; span timestamps are relative to now.
func NewSpanLog() *SpanLog { return &SpanLog{t0: time.Now()} }

// Start opens a span and returns the function that completes it. The
// span is appended when the returned function is called; args may be
// nil. tid groups spans into trace rows (e.g. one row per harness
// cell); pid is always 1.
func (l *SpanLog) Start(name, cat string, tid int64) func(args map[string]string) {
	start := time.Now()
	return func(args map[string]string) {
		l.Complete(name, cat, tid, start, args)
	}
}

// Complete appends a span that started at start and ends now.
func (l *SpanLog) Complete(name, cat string, tid int64, start time.Time, args map[string]string) {
	sp := Span{
		Name:  name,
		Cat:   cat,
		Phase: "X",
		TS:    start.Sub(l.t0).Microseconds(),
		Dur:   time.Since(start).Microseconds(),
		PID:   1,
		TID:   tid,
		Args:  args,
	}
	l.mu.Lock()
	l.spans = append(l.spans, sp)
	l.mu.Unlock()
}

// Len reports how many spans have been recorded.
func (l *SpanLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// Trace snapshots the recorded spans as a trace-event document.
func (l *SpanLog) Trace() *Trace {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Span, len(l.spans))
	copy(out, l.spans)
	return &Trace{TraceEvents: out, DisplayTimeUnit: "ms"}
}

// WriteJSON writes the trace-event document (indented, trailing
// newline) — the bytes behind the CLIs' -trace-out flag.
func (l *SpanLog) WriteJSON(w io.Writer) error {
	return l.Trace().WriteJSON(w)
}

// WriteJSON serializes the document.
func (t *Trace) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadTrace decodes a trace-event document, the inverse of WriteJSON
// (round-trip locked by the telemetry tests).
func ReadTrace(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, err
	}
	return &t, nil
}
