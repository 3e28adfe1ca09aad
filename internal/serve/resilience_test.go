package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The resilience battery: deadline-aware admission (queue-expiry
// shedding), load-tracking Retry-After, the stuck-session watchdog, and
// the drain-during-stream contract. These are the serving-layer
// promises the retrying client and the soak harness build on.

// occupyWorker posts an unbudgeted loop job that holds one worker until
// the returned cancel is called; done closes when the request ends.
func occupyWorker(t *testing.T, ts *httptest.Server, spec JobSpec) (cancel func(), done chan struct{}) {
	t.Helper()
	body, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelCtx := context.WithCancel(context.Background())
	done = make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
			ts.URL+"/v1/solve", bytes.NewReader(body))
		resp, err := ts.Client().Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	return cancelCtx, done
}

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		waiting, workers int
		draining         bool
		want             int
	}{
		{0, 4, false, 1},    // empty queue: come right back
		{4, 4, false, 2},    // one full wave queued
		{12, 4, false, 4},   // three waves
		{500, 4, false, 30}, // clamped
		{0, 0, false, 1},    // degenerate workers never divide by zero
		{0, 4, true, 5},     // draining: flat handoff hint
		{500, 4, true, 5},   // drain hint ignores queue depth
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.waiting, c.workers, c.draining); got != c.want {
			t.Errorf("retryAfterSeconds(%d, %d, %v) = %d, want %d",
				c.waiting, c.workers, c.draining, got, c.want)
		}
	}
	// Monotonic in queue depth: a deeper queue never suggests an
	// earlier retry.
	prev := 0
	for waiting := 0; waiting <= 200; waiting += 5 {
		got := retryAfterSeconds(waiting, 4, false)
		if got < prev {
			t.Fatalf("retryAfterSeconds not monotonic: waiting=%d gave %d after %d", waiting, got, prev)
		}
		prev = got
	}
}

// TestE2ERetryAfterTracksLoad pins the satellite fix for the hardcoded
// Retry-After: the header a saturated daemon sends grows with the
// actual queue depth instead of always suggesting one second.
func TestE2ERetryAfterTracksLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 2})

	// One job on the worker, two in the waiting room.
	var cancels []func()
	var dones []chan struct{}
	cancel, done := occupyWorker(t, ts, JobSpec{Program: loopProg, Workload: "hold"})
	cancels, dones = append(cancels, cancel), append(dones, done)
	waitFor(t, func() bool { return s.Stats().Inflight == 1 }, "worker occupied")
	for i := 0; i < 2; i++ {
		cancel, done := occupyWorker(t, ts, JobSpec{Program: loopProg, Workload: "queue"})
		cancels, dones = append(cancels, cancel), append(dones, done)
	}
	waitFor(t, func() bool { return s.Stats().Queued == 2 }, "queue filled")

	resp, _ := postJob(t, ts, JobSpec{Program: quickProg})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer", resp.Header.Get("Retry-After"))
	}
	if want := retryAfterSeconds(2, 1, false); ra != want {
		t.Errorf("Retry-After under 2 queued / 1 worker = %d, want %d", ra, want)
	}
	if ra <= 1 {
		t.Errorf("Retry-After = %d does not reflect queue depth (old hardcoded value)", ra)
	}

	for _, c := range cancels {
		c()
	}
	for _, d := range dones {
		<-d
	}
	waitFor(t, func() bool { return s.Stats().Inflight == 0 }, "held jobs released")
}

// TestE2EExpiredInQueue pins the queue-expiry shed: a job whose wall
// budget lapses while it waits for a worker ends with the expired class
// (504) and never acquires a pooled machine — the jobs counter and the
// compiled-program cache are untouched.
func TestE2EExpiredInQueue(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 4})

	cancel, done := occupyWorker(t, ts, JobSpec{Program: loopProg, Workload: "hold"})
	defer func() {
		cancel()
		<-done
	}()
	waitFor(t, func() bool { return s.Stats().Inflight == 1 }, "worker occupied")

	jobsBefore := s.Stats().Jobs
	programsBefore := s.Stats().Programs

	// A unique program: if the expired job ever compiled, the program
	// cache would grow.
	resp, b := postJob(t, ts, JobSpec{
		Program:   "expired_unique_marker(42).\ngo :- expired_unique_marker(42).\n",
		Workload:  "expiring",
		TimeoutMS: 80,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired status = %d, want 504\n%s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Psi-Class"); got != "expired" {
		t.Errorf("expired class header = %q, want expired", got)
	}
	var doc ErrorDoc
	if err := json.Unmarshal(b, &doc); err != nil || doc.Class != "expired" {
		t.Errorf("error doc = %+v (err %v), want class expired", doc, err)
	}

	st := s.Stats()
	if st.Expired != 1 {
		t.Errorf("expired counter = %d, want 1", st.Expired)
	}
	if st.Jobs != jobsBefore {
		t.Errorf("jobs counter moved %d -> %d; an expired job must never count as executed",
			jobsBefore, st.Jobs)
	}
	if st.Programs != programsBefore {
		t.Errorf("program cache grew %d -> %d; an expired job must never compile",
			programsBefore, st.Programs)
	}
	if st.Rejected == 0 {
		t.Error("expired shed not counted as a rejection")
	}
}

// TestWatchdogKillsStuckSession wedges an unbudgeted infinite loop under
// a MaxStuck cap and checks the watchdog hard-cancels it through the
// session seam: the run ends with the canceled class and its report
// carries a watchdog fault block with the flight-recorder dump.
func TestWatchdogKillsStuckSession(t *testing.T) {
	s, ts := newTestServer(t, Config{
		WatchdogMaxMS:      150,
		WatchdogIntervalMS: 20,
	})

	resp, b := postJob(t, ts, JobSpec{Program: loopProg, Workload: "stuck"})
	if resp.StatusCode != StatusClientClosedRequest {
		t.Fatalf("killed session status = %d, want 499\n%s", resp.StatusCode, b)
	}
	rep := decodeReport(t, b)
	if rep.Termination != "canceled" {
		t.Errorf("killed session termination = %q, want canceled", rep.Termination)
	}
	if rep.Fault == nil {
		t.Fatal("killed session report has no fault block")
	}
	if rep.Fault.Site != "watchdog" {
		t.Errorf("fault site = %q, want watchdog", rep.Fault.Site)
	}
	if len(rep.Fault.Flight) == 0 {
		t.Error("watchdog fault block carries no flight-recorder events")
	}
	if rep.Fault.Stack != "" {
		t.Error("watchdog fault block carries a stack; that breaks report determinism")
	}
	st := s.Stats()
	if st.WatchdogKills != 1 {
		t.Errorf("watchdog kills = %d, want 1", st.WatchdogKills)
	}
	// The kill reaches the exposition under the documented psid_ name
	// (the registry is process-wide, so other tests may add to it).
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	kills := -1
	for _, line := range strings.Split(string(text), "\n") {
		if v, ok := strings.CutPrefix(line, "psid_watchdog_kills_total "); ok {
			kills, _ = strconv.Atoi(v)
		}
		if strings.Contains(line, "psi_watchdog_kills_total") {
			t.Errorf("/metrics carries the undocumented name: %q", line)
		}
	}
	if kills < 1 {
		t.Errorf("/metrics psid_watchdog_kills_total = %d, want >= 1", kills)
	}
}

// TestWatchdogSparesBudgetedSessions runs a budgeted loop under an
// aggressive patrol and checks the engine's own deadline fires first:
// the watchdog only ever kills sessions that failed to end themselves.
func TestWatchdogSparesBudgetedSessions(t *testing.T) {
	s, ts := newTestServer(t, Config{
		WatchdogGrace:      8,
		WatchdogIntervalMS: 10,
	})

	resp, b := postJob(t, ts, JobSpec{Program: loopProg, Workload: "budgeted", TimeoutMS: 60})
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("budgeted loop status = %d, want 408\n%s", resp.StatusCode, b)
	}
	rep := decodeReport(t, b)
	if rep.Termination != "deadline" {
		t.Errorf("budgeted loop termination = %q, want deadline", rep.Termination)
	}
	if rep.Fault != nil {
		t.Errorf("healthy deadline run carries a fault block: %+v", rep.Fault)
	}
	if kills := s.Stats().WatchdogKills; kills != 0 {
		t.Errorf("watchdog killed %d budgeted sessions; grace must let the deadline fire first", kills)
	}
}

// TestStreamDrainTerminalEvent is the drain-during-stream regression: a
// hard drain that lands mid-stream must end the stream with an error
// event and the terminal report event — a degraded but complete
// document — never a cut socket.
func TestStreamDrainTerminalEvent(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	body, _ := json.Marshal(&JobSpec{
		Program:         loopProg,
		Workload:        "draining-stream",
		Stream:          true,
		HeartbeatCycles: 10_000,
	})
	type outcome struct {
		b   []byte
		err error
	}
	outc := make(chan outcome, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			outc <- outcome{nil, err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		outc <- outcome{b, err}
	}()
	waitFor(t, func() bool { return s.Stats().Inflight == 1 }, "stream in flight")

	// The SIGTERM path: drain, then the drain deadline passes and every
	// in-flight job is hard-canceled.
	s.BeginDrain()
	s.HardCancel()

	var out outcome
	select {
	case out = <-outc:
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not terminate after hard cancel")
	}
	if out.err != nil {
		t.Fatalf("stream body read failed: %v (the socket was cut)", out.err)
	}
	evs := decodeEvents(t, out.b)
	if len(evs) == 0 {
		t.Fatal("empty stream after drain")
	}
	last := evs[len(evs)-1]
	if last.Event != "report" || last.Report == nil {
		t.Fatalf("final event = %q, want the terminal report event", last.Event)
	}
	if last.Report.Termination != "canceled" {
		t.Errorf("drained stream report termination = %q, want canceled", last.Report.Termination)
	}
	var sawError bool
	for _, ev := range evs {
		if ev.Event == "error" && ev.Class == "canceled" {
			sawError = true
		}
	}
	if !sawError {
		t.Error("no canceled error event before the terminal report")
	}
}
