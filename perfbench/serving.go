package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/serve"
)

const (
	// setups is how many times a serving run starts a daemon and warms
	// it; setup_s is the median. The last daemon serves the run.
	setups = 3
	// programCacheCap is psid's default compiled-program cache size.
	programCacheCap = 256
	// lateLimit is how late the generator may start the 95th-percentile
	// job before the run is discarded as invalid: beyond it the schedule,
	// not the daemon, sets the latencies.
	lateLimit = 250 * time.Millisecond
)

// capacityRounds is each serving workload's closed-loop batch, in
// rounds of its generator: about four seconds of work on two cores.
var capacityRounds = map[string]int{"serve-small": 32, "serve-distinct": 60}

// The timed open loop and the capacity closed loop alternate in
// segments. A shared host's speed drifts by tens of percent over tens
// of seconds, so both phases then sample the whole run instead of one
// stretch of it.
const segments = 4

// servingPlan is every job one serving run sends.
type servingPlan struct {
	warm     [setups][]Job
	timed    []Job
	capacity []Job
	rate     float64
}

// planServing draws the run's jobs: one warm-up round per set-up, the
// timed phase (rate x seconds jobs, rounded up to whole rounds in every
// segment so every seed sends the same mix) and the closed-loop
// capacity batch.
func planServing(cfg runConfig) servingPlan {
	w := cfg.workload
	round := roundOf(w)
	p := servingPlan{rate: cfg.rates[w]}
	for i := range p.warm {
		p.warm[i] = workloadJobs(w, cfg.seed, phaseWarm+i, round)
	}
	per := round * segments
	n := int(math.Ceil(p.rate*float64(cfg.seconds)/float64(per))) * per
	p.timed = workloadJobs(w, cfg.seed, phaseTimed, n)
	p.capacity = workloadJobs(w, cfg.seed, phaseCapacity, capacityRounds[w]*round)
	return p
}

// jobs is every job of the run.
func (p servingPlan) jobs() []Job {
	var all []Job
	for _, w := range p.warm {
		all = append(all, w...)
	}
	all = append(all, p.timed...)
	return append(all, p.capacity...)
}

// reportDoc is the part of a psi-run-report/v1 the checks read.
type reportDoc struct {
	Termination string `json:"termination"`
	MicroCycles int64  `json:"micro_cycles"`
	SimulatedNS int64  `json:"simulated_ns"`
	Inferences  int64  `json:"inferences"`
}

// sample is one sent job's outcome.
type sample struct {
	latencyMS float64       // from due (open loop) or send (closed loop); +Inf when lost
	lateMS    float64       // how late the send started against its schedule
	doneAt    time.Duration // completion, from the start of the phase
	failed    bool          // refused at least once, lost, or timed out
	wrong     string        // non-empty: the answer differs from the reference
}

// checker holds each job body's reference outcome.
type checker map[string]expect

// judge classifies one client outcome.
func (c checker) judge(j Job, res *client.Result, err error) sample {
	var s sample
	if err != nil || res == nil {
		s.failed = true
		s.latencyMS = math.Inf(1)
		return s
	}
	if res.Attempts > 1 {
		// Refused (429/503) before it was served: a refusal misses any
		// latency limit, whatever the retry later achieved.
		s.failed = true
		s.latencyMS = math.Inf(1)
	}
	e := c[string(j.Body)]
	class, rep, binding, perr := decodeResponse(j, res)
	switch {
	case perr != nil:
		s.wrong = perr.Error()
	case class != e.Class:
		s.wrong = fmt.Sprintf("class %q, want %q", class, e.Class)
	case e.Ran && rep == nil:
		s.wrong = "no run report"
	case e.Ran && (rep.MicroCycles != e.Steps || rep.Inferences != e.Inferences || rep.SimulatedNS != e.TimeNS):
		s.wrong = fmt.Sprintf("steps/inferences/time_ns %d/%d/%d, want %d/%d/%d",
			rep.MicroCycles, rep.Inferences, rep.SimulatedNS, e.Steps, e.Inferences, e.TimeNS)
	case j.Var != "" && binding != e.Binding:
		s.wrong = fmt.Sprintf("%s = %s, want %s", j.Var, binding, e.Binding)
	}
	if s.wrong != "" {
		s.wrong = j.Spec.Workload + ": " + s.wrong
	}
	return s
}

// decodeResponse extracts the termination class, the run report and the
// checked binding from a served response: an NDJSON stream for streamed
// jobs, a bare report or error document otherwise.
func decodeResponse(j Job, res *client.Result) (string, *reportDoc, string, error) {
	if !j.Spec.Stream || res.Status != http.StatusOK {
		if res.Class == "" {
			return "", nil, "", fmt.Errorf("status %d without a class", res.Status)
		}
		var rep reportDoc
		if json.Unmarshal(res.Body, &rep) != nil || rep.Termination == "" {
			return res.Class, nil, "", nil // an error document: nothing ran
		}
		return res.Class, &rep, "", nil
	}
	var (
		class, binding string
		rep            *reportDoc
	)
	sc := bufio.NewScanner(bytes.NewReader(res.Body))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var ev struct {
			Event    string            `json:"event"`
			Bindings map[string]string `json:"bindings"`
			Class    string            `json:"class"`
			Report   *reportDoc        `json:"report"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", nil, "", fmt.Errorf("stream event: %w", err)
		}
		switch ev.Event {
		case "solution":
			if binding == "" && j.Var != "" {
				binding = ev.Bindings[j.Var]
			}
		case "error":
			class = ev.Class
		case "report":
			rep = ev.Report
		}
	}
	if rep != nil {
		class = rep.Termination
	}
	return class, rep, binding, sc.Err()
}

// loadClient is the benchmark's HTTP side: at most nproc connections,
// shared by at most nproc sender goroutines, each with its own retrying
// internal/client.Client.
type loadClient struct {
	hc      *http.Client
	clients []*client.Client
}

func newLoadClient(base string, senders int, seed uint64) *loadClient {
	tr := &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders}
	lc := &loadClient{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
	for i := 0; i < senders; i++ {
		lc.clients = append(lc.clients, client.New(base, client.Options{HTTP: lc.hc, Seed: seed + uint64(i)}))
	}
	return lc
}

func (lc *loadClient) retries() int64 {
	var st client.Stats
	for _, c := range lc.clients {
		st.Add(c.Stats())
	}
	return st.Retries
}

func (lc *loadClient) close() { lc.hc.CloseIdleConnections() }

// drive sends jobs from len(lc.clients) senders. With rate > 0 it is an
// open loop: job i is due at start + i/rate whether or not earlier jobs
// have finished, a sender that falls behind sends at once, and latency
// runs from the due time. With rate 0 it is a closed loop: each sender
// sends its next job when the previous one is answered.
func (lc *loadClient) drive(jobs []Job, rate float64, chk checker) ([]sample, time.Duration) {
	out := make([]sample, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, cl := range lc.clients {
		wg.Add(1)
		go func(cl *client.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				due := time.Now()
				if rate > 0 {
					due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					time.Sleep(time.Until(due))
				}
				sent := time.Now()
				res, err := cl.Solve(context.Background(), jobs[i].Body)
				s := chk.judge(jobs[i], res, err)
				if !math.IsInf(s.latencyMS, 1) {
					s.latencyMS = float64(time.Since(due)) / 1e6
				}
				s.lateMS = float64(sent.Sub(due)) / 1e6
				s.doneAt = time.Since(start)
				out[i] = s
			}
		}(cl)
	}
	wg.Wait()
	return out, time.Since(start)
}

// tally is a run's job count, failures and wrong answers.
type tally struct {
	attempted, failed int
	wrong             []string
}

func (t *tally) add(ss []sample) {
	for _, s := range ss {
		t.attempted++
		if s.failed {
			t.failed++
		}
		if s.wrong != "" {
			t.wrong = append(t.wrong, s.wrong)
		}
	}
}

// servingRun is the untraced measurement of one serving workload.
type servingRun struct {
	plan      servingPlan
	refs      checker
	setupS    []float64
	timed     []sample
	capRate   float64 // closed-loop jobs/s while every client was busy
	rssMB     float64
	tally     tally
	health    serve.Stats
	depthMax  int64
	retries   int64
	senders   int
	timedWall time.Duration
}

// measureServing runs set-up, the timed open loop and the capacity
// closed loop against psid. sampleDepth polls /healthz for the queue
// depth during the timed phase (traced runs only: it adds a connection).
func measureServing(cfg runConfig, sampleDepth bool) (*servingRun, error) {
	nproc := runtime.NumCPU()
	r := &servingRun{plan: planServing(cfg), senders: nproc}
	t0 := time.Now()
	refs, err := references(r.plan.jobs(), nproc)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	r.refs = refs
	fmt.Printf("references: %d distinct jobs in %.2fs (psi library)\n", len(refs), time.Since(t0).Seconds())

	var d *daemon
	var lc *loadClient
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if d, err = startDaemon(nproc); err != nil {
			return nil, err
		}
		lc = newLoadClient(d.base, nproc, cfg.seed)
		warm, _ := lc.drive(r.plan.warm[i], 0, r.refs)
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		r.tally.add(warm)
		if i < setups-1 {
			lc.close()
			if _, err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()

	stopSampler := func() {}
	if sampleDepth {
		stopSampler = r.sampleDepth(d)
	}
	var done, busy float64
	nt, nc := len(r.plan.timed)/segments, len(r.plan.capacity)/segments
	for k := 0; k < segments; k++ {
		ss, wall := lc.drive(r.plan.timed[k*nt:(k+1)*nt], r.plan.rate, r.refs)
		r.timed = append(r.timed, ss...)
		r.timedWall += wall
		cs, _ := lc.drive(r.plan.capacity[k*nc:(k+1)*nc], 0, r.refs)
		r.tally.add(cs)
		jobs, secs := busyWindow(cs, nproc)
		done += jobs
		busy += secs
		var lat []float64
		for _, s := range ss {
			lat = append(lat, s.latencyMS)
		}
		fmt.Printf("segment %d: open-loop p50 %.2f ms, p95 %.2f ms (n=%d); closed loop %.1f jobs/s\n",
			k+1, percentile(lat, 0.5).Value, percentile(lat, 0.95).Value, len(lat), jobs/secs)
	}
	stopSampler()
	r.tally.add(r.timed)
	r.capRate = done / busy

	hc := &http.Client{Timeout: 5 * time.Second}
	if r.health, err = d.stats(hc); err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	r.retries = lc.retries()
	lc.close()
	r.rssMB, err = d.stop()
	d = nil
	if err != nil {
		return nil, err
	}
	return r, nil
}

// sampleDepth polls /healthz every 10ms on its own connection and
// tracks the deepest queue seen; the returned func stops it and waits.
func (r *servingRun) sampleDepth(d *daemon) func() {
	hc := &http.Client{Timeout: 5 * time.Second}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if st, err := d.stats(hc); err == nil && st.Queued > r.depthMax {
					r.depthMax = st.Queued
				}
			}
		}
	}()
	return func() { close(stop); <-done; hc.CloseIdleConnections() }
}

// busyWindow is a closed-loop burst's steady part: the jobs completed
// from the start until fewer than senders jobs remain, and that time in
// seconds. The drain tail, where clients sit idle, is left out.
func busyWindow(ss []sample, senders int) (jobs, seconds float64) {
	done := make([]float64, len(ss))
	for i, s := range ss {
		done[i] = s.doneAt.Seconds()
	}
	sort.Float64s(done)
	n := len(done) - senders + 1
	return float64(n), done[n-1]
}

// latencies returns the timed phase's job latencies and lateness.
func (r *servingRun) latencies() (lat, late []float64) {
	for _, s := range r.timed {
		lat = append(lat, s.latencyMS)
		late = append(late, s.lateMS)
	}
	return lat, late
}

// endToEnd records the serving end-to-end metrics into s.
func (r *servingRun) endToEnd(s sheet) error {
	lat, late := r.latencies()
	p50 := percentile(lat, 0.50)
	p95 := percentile(lat, 0.95)
	lateP95 := percentile(late, 0.95)
	fmt.Printf("open loop: %d jobs at %.1f/s over %.2fs in %d segments from %d senders; generator late p95 %.3f ms\n",
		len(r.timed), r.plan.rate, r.timedWall.Seconds(), segments, r.senders, lateP95.Value)
	if !p95.OK {
		return fmt.Errorf("%d timed jobs cannot support a p95 (need %d beyond it)", len(lat), minBeyond)
	}
	capN := len(r.plan.capacity)
	s.set("setup_s", median(r.setupS), "s", fmt.Sprintf("median of %d daemon starts to /readyz + warm-up", len(r.setupS)))
	s.set("eval_s", float64(capN)/r.capRate, "s", fmt.Sprintf("closed-loop batch of %d jobs from %d clients, at capacity_rps", capN, r.senders))
	s.set("peak_rss_mb", r.rssMB, "MB", "psid max RSS")
	s.set("job_p50_ms", p50.Value, "ms", fmt.Sprintf("n=%d, from due time", p50.N))
	s.set("job_p95_ms", p95.Value, "ms", fmt.Sprintf("n=%d, %d beyond", p95.N, p95.N-int(math.Ceil(0.95*float64(p95.N)))))
	s.set("capacity_rps", r.capRate, "1/s", fmt.Sprintf("jobs done while all %d clients were busy / that time, over %d bursts", r.senders, segments))
	s.set("ok_share", 1-float64(r.tally.failed)/float64(r.tally.attempted), "share",
		fmt.Sprintf("fail_share %.4f = %d of %d sent refused, lost or timed out", float64(r.tally.failed)/float64(r.tally.attempted), r.tally.failed, r.tally.attempted))
	if time.Duration(lateP95.Value*1e6) > lateLimit {
		return fmt.Errorf("%w: the generator started its p95 job %.1f ms late (limit %v)", errInvalid, lateP95.Value, lateLimit)
	}
	return nil
}

// runServing is the serve-small / serve-distinct workload.
func runServing(cfg runConfig) (*result, error) {
	r, err := measureServing(cfg, cfg.trace)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: len(r.tally.wrong) == 0, Attempted: r.tally.attempted, Failed: r.tally.failed}
	for i, w := range r.tally.wrong {
		if i == 5 {
			fmt.Printf("  ... %d more wrong answers\n", len(r.tally.wrong)-i)
			break
		}
		fmt.Println("WRONG:", w)
	}
	e2e := sheet{}
	fmt.Println("end-to-end:")
	if err := r.endToEnd(e2e); err != nil {
		return nil, err
	}
	if !cfg.trace {
		res.Metrics = e2e.pick(endToEnd)
		return res, nil
	}
	layers := sheet{}
	if err := traceServing(cfg, r, layers); err != nil {
		return nil, err
	}
	res.Metrics = layers.pick(perLayer)
	return res, nil
}
