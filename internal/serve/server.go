package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// ErrorSchema identifies the JSON error document returned for requests
// that never reached a machine (bad specs, saturation, drain).
const ErrorSchema = "psi-serve-error/v1"

// ErrorDoc is the structured error response.
type ErrorDoc struct {
	Schema string `json:"schema"`
	Status int    `json:"status"`
	Class  string `json:"class"`
	Error  string `json:"error"`
}

// Server is the evaluation service: job admission, pooled execution and
// the ops plane, exposed as one http.Handler. Construct with New, mount
// Handler on a listener (cmd/psid) or an httptest server (the e2e
// battery), and call BeginDrain/HardCancel during shutdown.
type Server struct {
	cfg      Config
	q        *queue
	programs *programLRU

	// hardCtx cancels every in-flight job when the drain deadline
	// passes; the jobs end with their own budget class (canceled).
	hardCtx    context.Context
	hardCancel context.CancelFunc
	draining   atomic.Bool

	inflight atomic.Int64
	rejected atomic.Int64
	expired  atomic.Int64
	jobs     atomic.Int64
}

// New builds a Server from a config (zero fields take defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	hardCtx, hardCancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		q:          newQueue(cfg.Workers, cfg.Queue),
		programs:   newProgramLRU(cfg.Programs),
		hardCtx:    hardCtx,
		hardCancel: hardCancel,
	}
	registerServeFamilies()
	return s
}

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Handler builds the daemon's route table: the job endpoint plus the
// ops plane (/healthz liveness, /readyz readiness, /metrics, and the
// /debug/pprof + /debug/vars listener the obs package registers on the
// default mux).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/solve", s.handleSolve)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/readyz", s.handleReady)
	mux.Handle("/metrics", telemetry.Default.Handler())
	mux.Handle("/debug/", http.DefaultServeMux)
	return mux
}

// BeginDrain switches the daemon into drain mode: /readyz turns 503,
// queued jobs abort, and new jobs are refused with 503. In-flight jobs
// keep running; the caller then uses http.Server.Shutdown to wait for
// them and HardCancel if the drain deadline passes. Idempotent.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.q.drain()
}

// HardCancel cancels every in-flight job; each ends with the canceled
// class and its report records that termination. Idempotent.
func (s *Server) HardCancel() { s.hardCancel() }

// Stats is a snapshot of the admission state, served by /healthz and
// /readyz and used by tests to synchronize with in-flight work.
type Stats struct {
	Draining bool  `json:"draining"`
	Inflight int64 `json:"inflight"`
	Queued   int64 `json:"queued"`
	Rejected int64 `json:"rejected"`
	Expired  int64 `json:"expired"`
	Jobs     int64 `json:"jobs"`
	Programs int   `json:"programs"`
}

// Stats snapshots the server's admission counters.
func (s *Server) Stats() Stats {
	_, waiting := s.q.depths()
	return Stats{
		Draining: s.draining.Load(),
		Inflight: s.inflight.Load(),
		Queued:   int64(waiting),
		Rejected: s.rejected.Load(),
		Expired:  s.expired.Load(),
		Jobs:     s.jobs.Load(),
		Programs: s.programs.Len(),
	}
}

// handleHealth is liveness: 200 with a stats document for as long as
// the process can answer at all — draining included. Supervisors kill
// on a failing /healthz, and a draining daemon must not be killed
// mid-flight; use /readyz to steer traffic.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(s.Stats())
}

// handleReady is readiness: 200 while the daemon accepts new jobs, 503
// once draining — the signal load balancers use to stop routing here
// while in-flight work finishes.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	st := s.Stats()
	code := http.StatusOK
	if st.Draining {
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(st)
}

// writeError emits the structured error document for a request that
// never produced a report.
func writeError(w http.ResponseWriter, status int, class string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Psi-Class", class)
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorDoc{
		Schema: ErrorSchema,
		Status: status,
		Class:  class,
		Error:  err.Error(),
	})
}

// writeReject is writeError for admission rejections: backpressure and
// drain responses carry a Retry-After derived from the live queue
// state, so well-behaved clients back off proportionally to the actual
// load instead of hammering a saturated daemon on a fixed cadence.
func (s *Server) writeReject(w http.ResponseWriter, status int, class string, err error) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		_, waiting := s.q.depths()
		w.Header().Set("Retry-After",
			strconv.Itoa(retryAfterSeconds(waiting, s.cfg.Workers, s.draining.Load())))
	}
	writeError(w, status, class, err)
}

// retryAfterSeconds estimates when a rejected client should try again:
// one second per full wave of queued jobs ahead of it (each wave needs
// every worker to turn over once), clamped to [1, 30]. A draining
// daemon is about to hand off to a replacement, so it suggests a flat
// few seconds rather than a queue-derived figure — its queue will never
// drain into capacity for this client.
func retryAfterSeconds(waiting, workers int, draining bool) int {
	if draining {
		return 5
	}
	if workers < 1 {
		workers = 1
	}
	sec := 1 + waiting/workers
	if sec > 30 {
		sec = 30
	}
	return sec
}

// classMetric counts one finished (or refused) job under its class.
func classMetric(class string) {
	name := "psid_jobs_" + strings.ReplaceAll(class, "-", "_") + "_total"
	telemetry.Default.Counter(name, "jobs ended with class "+class).Inc()
}

// requestDurationBounds buckets request latencies from sub-millisecond
// cache hits to multi-second simulations.
var requestDurationBounds = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30,
}

// registerServeFamilies pre-registers the always-present psid_* metric
// families so the first scrape sees them zero-valued.
func registerServeFamilies() {
	reg := telemetry.Default
	reg.Counter("psid_jobs_total", "jobs admitted and executed")
	reg.Counter("psid_rejected_total", "jobs refused by backpressure or drain")
	reg.Gauge("psid_inflight_jobs", "jobs executing right now")
	reg.Gauge("psid_queue_depth", "jobs waiting for a worker")
	reg.Histogram("psid_request_seconds", "wall time per job request", requestDurationBounds)
}

// handleSolve is POST /v1/solve: decode, admit, execute, respond with a
// report or a stream. The job's wall-clock deadline is anchored at
// arrival — a job that spends its whole budget waiting in the queue is
// shed at dequeue time with the expired class (504) instead of burning
// a worker on an answer nobody can use.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "error", errors.New("POST a job spec"))
		return
	}
	arrive := time.Now()
	reg := telemetry.Default
	if s.draining.Load() {
		s.rejected.Add(1)
		reg.Counter("psid_rejected_total", "jobs refused by backpressure or drain").Inc()
		classMetric(ClassDraining)
		s.writeReject(w, StatusForClass(ClassDraining), ClassDraining, errDraining)
		return
	}
	spec, err := ParseSpec(r.Body, s.cfg.Defaults)
	if err != nil {
		classMetric("error")
		writeError(w, http.StatusBadRequest, "error", err)
		return
	}

	// The deadline covers the job's whole stay — queue wait included —
	// so admission itself gives up once the budget is spent.
	var deadline time.Time
	admitCtx := r.Context()
	if t := spec.Timeout(); t > 0 {
		deadline = arrive.Add(t)
		var admitCancel context.CancelFunc
		admitCtx, admitCancel = context.WithDeadline(admitCtx, deadline)
		defer admitCancel()
	}

	release, err := s.q.acquire(admitCtx)
	updateDepthGauges(s)
	if err != nil {
		s.rejected.Add(1)
		reg.Counter("psid_rejected_total", "jobs refused by backpressure or drain").Inc()
		class := ClassSaturated
		switch {
		case errors.Is(err, errDraining):
			class = ClassDraining
		case errors.Is(err, context.DeadlineExceeded) && expiredNow(deadline):
			class = "expired"
			s.expired.Add(1)
			err = fmt.Errorf("%w: spent the %v budget waiting for a worker", engine.ErrExpired, spec.Timeout())
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			class = "canceled"
			err = engine.CtxError(err)
		}
		classMetric(class)
		s.writeReject(w, StatusForClass(class), class, err)
		return
	}

	// Dequeue-time shed: the queue admitted us, but the deadline may
	// have lapsed during the wait. Release the worker token before any
	// pool work — an expired job never touches a machine.
	if expiredNow(deadline) {
		release()
		s.rejected.Add(1)
		s.expired.Add(1)
		reg.Counter("psid_rejected_total", "jobs refused by backpressure or drain").Inc()
		classMetric("expired")
		updateDepthGauges(s)
		err := fmt.Errorf("%w: spent the %v budget waiting for a worker", engine.ErrExpired, spec.Timeout())
		s.writeReject(w, StatusForClass("expired"), "expired", err)
		return
	}
	defer release()

	s.jobs.Add(1)
	s.inflight.Add(1)
	reg.Counter("psid_jobs_total", "jobs admitted and executed").Inc()
	updateDepthGauges(s)
	start := time.Now()
	defer func() {
		s.inflight.Add(-1)
		updateDepthGauges(s)
		reg.Histogram("psid_request_seconds", "wall time per job request",
			requestDurationBounds).Observe(time.Since(start).Seconds())
	}()

	// The job context: the client's context (gone client = canceled) plus
	// the wall-clock budget anchored at arrival, hard-canceled if a drain
	// deadline passes.
	ctx := r.Context()
	var cancel context.CancelFunc
	if !deadline.IsZero() {
		ctx, cancel = context.WithDeadline(ctx, deadline)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	stop := context.AfterFunc(s.hardCtx, cancel)
	defer stop()

	if spec.Stream {
		s.streamSolve(ctx, w, r, spec)
		return
	}
	s.reportSolve(ctx, w, spec)
}

// expiredNow reports whether a job's arrival-anchored deadline (zero =
// unbudgeted) has already passed.
func expiredNow(deadline time.Time) bool {
	return !deadline.IsZero() && !time.Now().Before(deadline)
}

// updateDepthGauges publishes the admission occupancy.
func updateDepthGauges(s *Server) {
	_, waiting := s.q.depths()
	reg := telemetry.Default
	reg.Gauge("psid_inflight_jobs", "jobs executing right now").Set(float64(s.inflight.Load()))
	reg.Gauge("psid_queue_depth", "jobs waiting for a worker").Set(float64(waiting))
}

// reportSolve runs the job to completion and answers with the full
// psi-run-report/v1 document — the same bytes `psi -json` writes for
// the same job — under the status the termination class maps to.
func (s *Server) reportSolve(ctx context.Context, w http.ResponseWriter, spec *JobSpec) {
	res, err := s.execute(ctx, spec, nil, nil)
	if err != nil {
		class := engine.ClassName(err)
		classMetric(class)
		writeError(w, StatusFor(err), class, err)
		return
	}
	class := engine.ClassName(res.runErr)
	classMetric(class)
	b, err := res.report.JSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "error", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Psi-Schema", obs.ReportSchema)
	w.Header().Set("X-Psi-Termination", class)
	w.Header().Set("X-Psi-Solutions", strconv.Itoa(res.solutions))
	w.WriteHeader(StatusForClass(class))
	w.Write(b)
}
