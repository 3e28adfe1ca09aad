package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// The resilience battery: deadline-aware admission (queue-expiry
// shedding), load-tracking Retry-After, deadlines that reach nested
// sub-executions, and the drain-during-stream contract. These are the
// serving-layer promises the retrying client and the soak harness build
// on.

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

// nestedLoopProg loops inside findall/3: only a context poll inside the
// nested sub-execution ends it before the step limit.
const nestedLoopProg = "loop :- loop.\ngo :- findall(X, loop, _).\n"

// TestNestedLoopEndsAtDeadline runs a budgeted loop nested in findall/3
// and checks the job's own deadline ends it, with the deadline class, a
// clean report and well before the default step limit would.
func TestNestedLoopEndsAtDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	start := time.Now()
	resp, b := postJob(t, ts, JobSpec{Program: nestedLoopProg, Workload: "nested", TimeoutMS: 200})
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("a 200 ms budget took %v to end", d)
	}
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("nested loop status = %d, want 408\n%s", resp.StatusCode, b)
	}
	rep := decodeReport(t, b)
	if rep.Termination != "deadline" {
		t.Errorf("nested loop termination = %q, want deadline", rep.Termination)
	}
	if rep.Fault != nil {
		t.Errorf("deadline run carries a fault block: %+v", rep.Fault)
	}
}

// TestDefaultTimeoutCapsUnbudgetedJobs checks defaults.timeout_ms is the
// wall budget of a job that names none: an unbudgeted nested loop ends
// with the deadline class.
func TestDefaultTimeoutCapsUnbudgetedJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Defaults: Defaults{TimeoutMS: 150}})

	resp, b := postJob(t, ts, JobSpec{Program: nestedLoopProg, Workload: "unbudgeted"})
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("unbudgeted loop status = %d, want 408\n%s", resp.StatusCode, b)
	}
	if rep := decodeReport(t, b); rep.Termination != "deadline" {
		t.Errorf("unbudgeted loop termination = %q, want deadline", rep.Termination)
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
