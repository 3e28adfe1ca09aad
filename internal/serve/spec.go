// Package serve is the long-running evaluation service of the PSI
// reproduction: a stdlib net/http daemon (cmd/psid) that accepts Prolog
// program + query jobs over JSON, runs them on pooled simulated machines
// through the shared compiled-image cache, and answers with either a
// stream of solutions (NDJSON or SSE) or the full psi-run-report/v1
// document — byte-identical to what `psi -json` writes for the same job.
//
// The serving layer is a thin deterministic shell over the engine seam:
//
//   - every job compiles through harness.Compile, whose image cache is
//     keyed by content hash and bounded, so an unbounded stream of
//     distinct programs cannot grow the process without bound;
//   - every run borrows a pooled machine (harness.Compiled.Open) whose
//     Reset guarantees bit-identical behaviour to a fresh machine, which
//     is what makes reports reproducible across requests;
//   - per-request budgets (steps, timeout) and injected faults surface
//     through the engine error taxonomy, mapped onto HTTP statuses by
//     the single table in status.go;
//   - admission is a bounded queue with backpressure (429 when
//     saturated) and a drain mode for graceful shutdown (503 for new
//     work, in-flight runs complete or end with their own budget class).
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/harness"
)

// SpecSchema identifies the job-spec JSON schema accepted by POST
// /v1/solve. Unknown fields are rejected, so a typo'd budget never
// silently runs unbounded.
const SpecSchema = "psi-serve-job/v1"

// maxSpecBytes bounds the request body a single job may carry.
const maxSpecBytes = 8 << 20

// CacheSpec selects the simulated cache geometry for a job, mirroring
// the psi CLI's -cache/-sets/-store-through/-nocache flags. The zero
// value (or a nil CacheSpec) selects the PSI's 8K-word two-set store-in
// cache.
type CacheSpec struct {
	Words        int  `json:"words,omitempty"`
	Sets         int  `json:"sets,omitempty"`
	StoreThrough bool `json:"store_through,omitempty"`
	Disable      bool `json:"disable,omitempty"`
}

// JobSpec is one evaluation job: a Prolog program plus the goal driving
// it, with per-request budgets and machine configuration. Fields left
// zero take the daemon's configured defaults (see Defaults).
type JobSpec struct {
	// Schema optionally names the spec schema; when present it must be
	// SpecSchema.
	Schema string `json:"schema,omitempty"`
	// Program is the Prolog source (required).
	Program string `json:"program"`
	// Query is the driving goal (default "go", like `psi -g`).
	Query string `json:"query,omitempty"`
	// Workload labels the run in reports and metrics (default "<job>").
	Workload string `json:"workload,omitempty"`
	// All enumerates every solution instead of stopping at the first
	// (`psi -all`).
	All bool `json:"all,omitempty"`
	// Limit bounds the enumerated solutions under All (0 = unbounded).
	Limit int `json:"limit,omitempty"`
	// Steps bounds the simulation in machine steps; exceeding it ends
	// the run with the step-limit class (0 = the daemon default).
	Steps int64 `json:"steps,omitempty"`
	// TimeoutMS bounds the run in wall-clock milliseconds; exceeding it
	// ends the run with the deadline class (0 = the daemon default,
	// which may itself be "none").
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Engine is accepted and validated ("exact", "fast" or "" for the
	// daemon default) but does not change accounting: the machine has a
	// single cycle-accounting path.
	Engine string `json:"engine,omitempty"`
	// Stream switches the response to streamed solutions (NDJSON, or SSE
	// under `Accept: text/event-stream`) ending in a report event,
	// instead of a bare psi-run-report/v1 body.
	Stream bool `json:"stream,omitempty"`
	// HeartbeatCycles, for streamed jobs, emits a heartbeat event every
	// this many simulated cycles (0 = no heartbeats).
	HeartbeatCycles int64 `json:"heartbeat_cycles,omitempty"`
	// Fault injects a deterministic seeded fault, in the psi CLI's
	// -fault syntax (e.g. "site=mem,after=1000,seed=1"). The contained
	// fault ends the run with the fault class and a report whose fault
	// block carries the flight-recorder dump.
	Fault string `json:"fault,omitempty"`
	// Cache overrides the simulated cache geometry.
	Cache *CacheSpec `json:"cache,omitempty"`
	// Stdlib preloads the standard library before the program, like
	// `psi -stdlib`.
	Stdlib bool `json:"stdlib,omitempty"`
	// HostStats includes the non-deterministic host section (wall time,
	// allocations) in the report, like `psi -json` does. Off by default
	// so byte-identical jobs get byte-identical reports.
	HostStats bool `json:"host_stats,omitempty"`
	// DebugStack keeps the Go stack in fault reports. Off by default:
	// stacks carry goroutine ids, which would break report determinism.
	DebugStack bool `json:"debug_stack,omitempty"`
}

// Defaults are the daemon-level job-spec defaults, set in the config
// file and applied to every field a job leaves zero.
type Defaults struct {
	Query     string `json:"query,omitempty"`
	Steps     int64  `json:"steps,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	Engine    string `json:"engine,omitempty"`
	Limit     int    `json:"limit,omitempty"`
}

// Config configures the daemon: listener address, admission bounds,
// drain behaviour and job defaults. The zero value is usable; see
// withDefaults for the fallbacks.
type Config struct {
	// Addr is the listen address (default ":8131").
	Addr string `json:"addr,omitempty"`
	// Workers bounds the jobs simulating concurrently (default
	// GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Queue bounds the jobs waiting for a worker; beyond it requests are
	// rejected with 429 (default 4x Workers). Negative means no waiting
	// room: every job not immediately admitted is rejected.
	Queue int `json:"queue,omitempty"`
	// DrainTimeoutMS bounds graceful drain: in-flight jobs still running
	// when it expires are hard-canceled and end with the canceled class
	// (default 30000).
	DrainTimeoutMS int64 `json:"drain_timeout_ms,omitempty"`
	// Defaults are the job-spec defaults.
	Defaults Defaults `json:"defaults,omitempty"`
}

// LoadConfig reads a daemon config file (JSON, unknown fields rejected).
func LoadConfig(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("config %s: %w", path, err)
	}
	return c, nil
}

// withDefaults fills the zero fields of a Config.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8131"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.Queue < 0:
		c.Queue = 0
	case c.Queue == 0:
		c.Queue = 4 * c.Workers
	}
	if c.DrainTimeoutMS <= 0 {
		c.DrainTimeoutMS = 30_000
	}
	return c
}

// DrainTimeout is the configured drain bound as a duration.
func (c Config) DrainTimeout() time.Duration {
	return time.Duration(c.withDefaults().DrainTimeoutMS) * time.Millisecond
}

// ParseSpec decodes and validates one job spec, applying the daemon
// defaults. Validation failures are plain errors (the generic "error"
// class, HTTP 400): the job never reached a machine.
func ParseSpec(r io.Reader, d Defaults) (*JobSpec, error) {
	dec := json.NewDecoder(io.LimitReader(r, maxSpecBytes))
	dec.DisallowUnknownFields()
	var s JobSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("job spec: %w", err)
	}
	if s.Schema != "" && s.Schema != SpecSchema {
		return nil, fmt.Errorf("job spec: schema %q, want %q", s.Schema, SpecSchema)
	}
	s.applyDefaults(d)
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// applyDefaults fills zero fields from the daemon defaults plus the
// psi CLI's own fallbacks (query "go").
func (s *JobSpec) applyDefaults(d Defaults) {
	if s.Query == "" {
		s.Query = d.Query
	}
	if s.Query == "" {
		s.Query = "go"
	}
	if s.Workload == "" {
		s.Workload = "<job>"
	}
	if s.Steps == 0 {
		s.Steps = d.Steps
	}
	if s.TimeoutMS == 0 {
		s.TimeoutMS = d.TimeoutMS
	}
	if s.Engine == "" {
		s.Engine = d.Engine
	}
	if s.Limit == 0 {
		s.Limit = d.Limit
	}
}

// validate rejects specs that could never run.
func (s *JobSpec) validate() error {
	if s.Program == "" {
		return errors.New("job spec: program is required")
	}
	if _, err := engine.ParseMode(s.Engine); err != nil {
		return fmt.Errorf("job spec: %w", err)
	}
	if s.Fault != "" {
		if _, err := fault.Parse(s.Fault); err != nil {
			return fmt.Errorf("job spec: bad fault: %w", err)
		}
	}
	if s.Steps < 0 || s.TimeoutMS < 0 || s.Limit < 0 || s.HeartbeatCycles < 0 {
		return errors.New("job spec: budgets must be non-negative")
	}
	return nil
}

// Timeout is the job's wall-clock budget (0 = none).
func (s *JobSpec) Timeout() time.Duration {
	return time.Duration(s.TimeoutMS) * time.Millisecond
}

// Key is the job's compiled-image cache key (harness.Key): a content
// hash over the effective source and query, so byte-identical programs
// share one compiled image regardless of workload label or budgets.
func (s *JobSpec) Key() string { return harness.Key(s.benchmark()) }
