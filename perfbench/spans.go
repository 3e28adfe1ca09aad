package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// tracer records spans around the benchmark's calls into each layer.
// A nil *tracer records nothing, so the untraced replay runs the same
// code without the clock reads. Spans keep their parent, so a layer's
// self time is its duration minus its children's.
type tracer struct {
	mu    sync.Mutex
	spans []span
	log   *telemetry.SpanLog
}

type span struct {
	name   string
	job    int64
	parent int // index into spans, -1 for a root
	start  time.Time
	dur    time.Duration
}

func newTracer() *tracer { return &tracer{log: telemetry.NewSpanLog()} }

// begin opens a span of job under parent (-1 = root) and returns its id.
func (t *tracer) begin(job int64, name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, job: job, parent: parent, start: time.Now()})
	return len(t.spans) - 1
}

// end closes span id and exports it to the Chrome trace, with the job
// id as the trace row so one job's spans line up.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	sp := &t.spans[id]
	sp.dur = now.Sub(sp.start)
	name, job, start, d := sp.name, sp.job, sp.start, sp.dur
	t.mu.Unlock()
	t.log.Complete(name, "perfbench", job, start, map[string]string{"job": fmt.Sprint(job)})
	return d
}

// durations returns every closed span's duration by name.
func (t *tracer) durations() map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, sp := range t.spans {
		out[sp.name] = append(out[sp.name], sp.dur)
	}
	return out
}

// perJob sums, for each job, the durations of spans named in names.
func (t *tracer) perJob(names ...string) map[int64]time.Duration {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[int64]time.Duration{}
	for _, sp := range t.spans {
		if want[sp.name] {
			out[sp.job] += sp.dur
		}
	}
	return out
}

// selfTimes is each span name's total self time: its duration minus
// the time its direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, sp := range t.spans {
		if sp.parent >= 0 {
			child[sp.parent] += sp.dur
		}
	}
	out := map[string]time.Duration{}
	for i, sp := range t.spans {
		out[sp.name] += sp.dur - child[i]
	}
	return out
}

// printSelfTable prints the per-layer self-time table.
func (t *tracer) printSelfTable(title string) {
	self := t.selfTimes()
	calls := map[string]int{}
	var total time.Duration
	for _, sp := range t.spans {
		calls[sp.name]++
	}
	names := make([]string, 0, len(self))
	for n, d := range self {
		names = append(names, n)
		total += d
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Printf("%s (self time = span minus child spans)\n", title)
	fmt.Printf("  %-26s %8s %12s %7s %12s\n", "layer span", "calls", "self ms", "share", "self us/call")
	for _, n := range names {
		d := self[n]
		fmt.Printf("  %-26s %8d %12.3f %6.1f%% %12.2f\n", n, calls[n],
			float64(d)/1e6, 100*float64(d)/float64(total), float64(d)/1e3/float64(calls[n]))
	}
}

// writeChrome writes the spans as a Chrome trace-event file under dir.
func (t *tracer) writeChrome(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := t.log.WriteJSON(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// p50 of a duration sample in the given unit.
func p50(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}
