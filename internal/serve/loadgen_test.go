package serve

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/client"
)

// TestMixDeterminism pins the replayability contract: the same seed
// expands to the same job sequence, byte for byte, and different seeds
// diverge. This is what lets a load run be reproduced exactly.
func TestMixDeterminism(t *testing.T) {
	mix := DefaultMix()
	a := mix.Jobs(42, 50)
	b := mix.Jobs(42, 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different job sequences")
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("same seed produced different job JSON")
	}
	c := mix.Jobs(43, 50)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical sequences")
	}
}

// TestMixShape checks a long draw includes every job kind and that every
// generated spec passes validation (the daemon must never 400 its own
// load generator).
func TestMixShape(t *testing.T) {
	jobs := DefaultMix().Jobs(7, 400)
	kinds := map[string]int{}
	for i := range jobs {
		s := jobs[i]
		s.applyDefaults(Defaults{})
		if err := s.validate(); err != nil {
			t.Fatalf("generated job %d invalid: %v", i, err)
		}
		switch {
		case s.Fault != "":
			kinds["fault"]++
		case s.Workload == "mix-step-limit":
			kinds["step-limit"]++
		case s.Workload == "mix-malformed-runtime" || s.Workload == "mix-malformed-parse":
			kinds["malformed"]++
		default:
			kinds["corpus"]++
		}
	}
	for _, k := range []string{"corpus", "malformed", "step-limit", "fault"} {
		if kinds[k] == 0 {
			t.Errorf("400 draws produced no %s jobs (got %v)", k, kinds)
		}
	}
	if kinds["corpus"] < kinds["malformed"] {
		t.Errorf("mix inverted: %v", kinds)
	}
}

// TestRunLoadSmoke drives a small load through a real server and checks
// the benchmark record validates — the same gate `make bench-serve
// SMOKE=1` applies in CI.
func TestRunLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke skipped in short mode")
	}
	_, ts := newTestServer(t, Config{Workers: 4})
	rep := RunLoadClient(ts.URL, 3, 4, 1, DefaultMix(), client.Options{HTTP: ts.Client()})
	if err := rep.Validate(); err != nil {
		b, _ := rep.JSON()
		t.Fatalf("load record invalid: %v\n%s", err, b)
	}
	if rep.Requests != 12 {
		t.Errorf("requests = %d, want 12", rep.Requests)
	}
	if _, err := rep.JSON(); err != nil {
		t.Fatal(err)
	}
}

func TestBenchReportValidate(t *testing.T) {
	good := &BenchReport{
		Schema:        BenchSchema,
		Requests:      10,
		ThroughputRPS: 2.5,
		Latency:       LatencySummary{P50NS: 1000, P90NS: 2000, P99NS: 3000, MaxNS: 4000, MeanNS: 1500},
		StatusCounts:  map[string]int64{"200": 9, "422": 1},
		ClassCounts:   map[string]int64{"ok": 9, "malformed": 1},
		Retry:         client.Stats{Attempts: 12, Retries: 2},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	bad := []func(*BenchReport){
		func(r *BenchReport) { r.Schema = "nope" },
		func(r *BenchReport) { r.Requests = 0 },
		func(r *BenchReport) { r.Transport = 1 },
		func(r *BenchReport) { r.Latency.P50NS = 0 },
		func(r *BenchReport) { r.ThroughputRPS = 0 },
		func(r *BenchReport) { r.StatusCounts = map[string]int64{} },
		func(r *BenchReport) { r.StatusCounts = map[string]int64{"500": 10} },
		func(r *BenchReport) { r.Retry.Attempts = 3 }, // fewer attempts than served requests
		func(r *BenchReport) { r.Unserved = 2 },       // unserved without matching retry sheds
	}
	for i, mutate := range bad {
		r := *good
		r.StatusCounts = map[string]int64{"200": 9}
		r.ClassCounts = map[string]int64{"ok": 9}
		mutate(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestSummarize(t *testing.T) {
	if got := summarize(nil); got != (LatencySummary{}) {
		t.Errorf("empty sample = %+v", got)
	}
	var ns []int64
	for i := 1; i <= 100; i++ {
		ns = append(ns, int64(i)*int64(time.Millisecond))
	}
	s := summarize(ns)
	if s.P50NS <= 0 || s.P99NS < s.P90NS || s.P90NS < s.P50NS || s.MaxNS != ns[99] {
		t.Errorf("summary out of order: %+v", s)
	}
	if s.MeanNS != ns[49]/2+ns[50]/2 {
		// mean of 1..100 ms = 50.5ms
		if s.MeanNS < ns[49] || s.MeanNS > ns[50] {
			t.Errorf("mean = %d, want about 50.5ms", s.MeanNS)
		}
	}
}

// TestRunLoadClientRetriesAgainstDrainingDaemon pins the retry wiring
// deterministically: every response from a draining daemon is a
// retryable 503, so each job burns its full attempt budget and is shed.
func TestRunLoadClientRetriesAgainstDrainingDaemon(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.BeginDrain()
	rep := RunLoadClient(ts.URL, 2, 3, 1, DefaultMix(), client.Options{
		HTTP:             ts.Client(),
		MaxAttempts:      3,
		BreakerThreshold: -1, // isolate the attempt budget from the breaker
		Sleep:            func(context.Context, time.Duration) error { return nil },
	})
	if rep.Requests != 0 || rep.Unserved != 6 {
		t.Errorf("draining load served %d / unserved %d, want 0 / 6", rep.Requests, rep.Unserved)
	}
	if rep.Retry.Attempts != 18 || rep.Retry.Retries != 12 || rep.Retry.Shed != 6 {
		t.Errorf("retry block = %+v, want 18 attempts / 12 retries / 6 shed", rep.Retry)
	}
	if rep.Retry.RetryAfterHonored == 0 {
		t.Error("draining 503s carry Retry-After; none honored")
	}
}

// TestRunLoadClientBreakerShedsFast pins the breaker wiring: once the
// threshold trips against a dead-for-new-work daemon, remaining jobs
// shed fast without further attempts.
func TestRunLoadClientBreakerShedsFast(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.BeginDrain()
	rep := RunLoadClient(ts.URL, 1, 5, 1, DefaultMix(), client.Options{
		HTTP:             ts.Client(),
		MaxAttempts:      1,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute, // never half-opens within the test
		Sleep:            func(context.Context, time.Duration) error { return nil },
	})
	if rep.Unserved != 5 {
		t.Errorf("unserved = %d, want all 5 jobs shed", rep.Unserved)
	}
	if rep.Retry.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (breaker stopped the rest)", rep.Retry.Attempts)
	}
	if rep.Retry.BreakerOpens != 1 {
		t.Errorf("breaker opens = %d, want 1", rep.Retry.BreakerOpens)
	}
}
