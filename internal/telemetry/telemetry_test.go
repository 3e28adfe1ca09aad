package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- span log / Chrome trace-event export ---

// TestTraceGolden locks the exact trace-event document shape Perfetto
// and chrome://tracing consume: complete ("X") events with microsecond
// ts/dur, pid/tid lanes and string args.
func TestTraceGolden(t *testing.T) {
	tr := &Trace{
		DisplayTimeUnit: "ms",
		TraceEvents: []Span{
			{Name: "table1/nreverse (30)", Cat: "cell", Phase: "X", TS: 12, Dur: 340, PID: 1, TID: 1,
				Args: map[string]string{"status": "ok"}},
			{Name: "step", Cat: "step", Phase: "X", TS: 400, Dur: 29, PID: 1, TID: 0},
		},
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	const golden = `{
  "traceEvents": [
    {
      "name": "table1/nreverse (30)",
      "cat": "cell",
      "ph": "X",
      "ts": 12,
      "dur": 340,
      "pid": 1,
      "tid": 1,
      "args": {
        "status": "ok"
      }
    },
    {
      "name": "step",
      "cat": "step",
      "ph": "X",
      "ts": 400,
      "dur": 29,
      "pid": 1,
      "tid": 0
    }
  ],
  "displayTimeUnit": "ms"
}
`
	if buf.String() != golden {
		t.Errorf("trace-event document diverged from the golden:\n--- got\n%s--- want\n%s", buf.String(), golden)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	l := NewSpanLog()
	done := l.Start("compile", "session", 3)
	done(map[string]string{"workload": "qsort"})
	l.Complete("step", "step", 0, time.Now().Add(-time.Millisecond), nil)
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := l.Trace()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip diverged:\ngot  %+v\nwant %+v", got, want)
	}
	for _, sp := range got.TraceEvents {
		if sp.Phase != "X" || sp.PID != 1 {
			t.Errorf("span %q: phase %q pid %d, want X/1", sp.Name, sp.Phase, sp.PID)
		}
	}
}

// TestSpanLogConcurrent exercises the log from parallel writers (the
// harness appends cell spans from its worker pool); run with -race.
func TestSpanLogConcurrent(t *testing.T) {
	l := NewSpanLog()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				done := l.Start("cell", "cell", int64(w))
				done(nil)
			}
		}(w)
	}
	wg.Wait()
	if l.Len() != 400 {
		t.Errorf("Len = %d, want 400", l.Len())
	}
}

// --- metrics registry ---

func TestRegistryPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("psi_runs_total", "completed simulated runs").Add(3)
	r.Counter("psi_runs_total", "ignored duplicate help").Inc()
	r.Gauge("psi_cache_hit_ratio", "overall cache hit ratio").Set(0.875)
	h := r.Histogram("psi_session_duration_seconds", "simulated session wall time", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	if h.Count() != 3 {
		t.Errorf("histogram Count = %d, want 3", h.Count())
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	const golden = `# HELP psi_cache_hit_ratio overall cache hit ratio
# TYPE psi_cache_hit_ratio gauge
psi_cache_hit_ratio 0.875
# HELP psi_runs_total completed simulated runs
# TYPE psi_runs_total counter
psi_runs_total 4
# HELP psi_session_duration_seconds simulated session wall time
# TYPE psi_session_duration_seconds histogram
psi_session_duration_seconds_bucket{le="0.1"} 1
psi_session_duration_seconds_bucket{le="1"} 2
psi_session_duration_seconds_bucket{le="+Inf"} 3
psi_session_duration_seconds_sum 5.55
psi_session_duration_seconds_count 3
`
	if buf.String() != golden {
		t.Errorf("exposition diverged from the golden:\n--- got\n%s--- want\n%s", buf.String(), golden)
	}
}

// TestRegistryConcurrent hammers one registry from parallel writers and
// scrapers; run with -race. The final counts must not lose updates.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	// Register up front so every scrape, even one that fires before the
	// first writer's increment, sees all three families.
	r.Counter("c", "")
	r.Gauge("g", "")
	r.Histogram("h", "", []float64{10, 100})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c", "").Inc()
				r.Gauge("g", "").Set(float64(i))
				r.Histogram("h", "", []float64{10, 100}).Observe(float64(i))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			r.WritePrometheus(&buf)
			if !strings.Contains(buf.String(), "# TYPE c counter") {
				t.Error("scrape lost the counter")
				return
			}
		}
	}()
	wg.Wait()
	if got := r.Counter("c", "").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h", "", nil).Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

// --- flight recorder ---

func TestFlightRingWrap(t *testing.T) {
	f := NewFlight(4)
	for i := 0; i < 10; i++ {
		f.Record(int64(i*100), "step", "")
	}
	if f.Len() != 4 {
		t.Errorf("Len = %d, want 4", f.Len())
	}
	if f.Recorded() != 10 {
		t.Errorf("Recorded = %d, want 10", f.Recorded())
	}
	ev := f.Events()
	if len(ev) != 4 {
		t.Fatalf("Events returned %d entries, want 4", len(ev))
	}
	for i, e := range ev {
		wantSeq := int64(6 + i)
		if e.Seq != wantSeq || e.Step != wantSeq*100 {
			t.Errorf("Events[%d] = {Seq %d, Step %d}, want {Seq %d, Step %d}",
				i, e.Seq, e.Step, wantSeq, wantSeq*100)
		}
	}
	f.Reset()
	if f.Len() != 0 || f.Recorded() != 0 || len(f.Events()) != 0 {
		t.Errorf("after Reset: Len %d Recorded %d Events %d, want all 0",
			f.Len(), f.Recorded(), len(f.Events()))
	}
}

func TestFlightPartialFill(t *testing.T) {
	f := NewFlight(0)
	if cap(f.ring) != DefaultFlightSize {
		t.Errorf("default capacity = %d, want %d", cap(f.ring), DefaultFlightSize)
	}
	f.Record(10, "step", "budget=100")
	f.Record(20, "solution", "")
	ev := f.Events()
	if len(ev) != 2 || ev[0].Kind != "step" || ev[1].Kind != "solution" {
		t.Errorf("Events = %+v, want the two recorded events oldest-first", ev)
	}
	if ev[0].Detail != "budget=100" {
		t.Errorf("Detail = %q, want %q", ev[0].Detail, "budget=100")
	}
}
