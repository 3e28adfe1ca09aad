package obs

import (
	_ "expvar" // registers /debug/vars (Go runtime memstats, cmdline) on the default mux
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"runtime"
	"runtime/pprof"
	"sync"

	"repro/internal/telemetry"
)

// Host profiling hooks: the simulator is itself a program worth
// profiling, so the CLIs expose the standard Go toolchain entry points —
// CPU/heap profiles written to files and an optional debug HTTP listener
// with /debug/pprof, Go's runtime expvars at /debug/vars, and the
// telemetry registry's counters about the simulation at /metrics.

// sessionDurationBounds buckets session wall times from sub-millisecond
// micro-benchmarks up to multi-second simulations.
var sessionDurationBounds = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30,
}

// RecordRun accumulates one finished run into the telemetry metrics
// registry (scraped at /metrics). Pass zero for counters the caller did
// not measure (cacheAccesses 0 leaves the hit-ratio gauge untouched;
// wallNS 0 skips the duration histogram).
func RecordRun(cycles, inferences, cacheHits, cacheAccesses, wallNS int64) {
	reg := telemetry.Default
	reg.Counter("psi_runs_total", "simulation runs completed").Inc()
	reg.Counter("psi_cycles_simulated_total", "microcycles simulated across all runs").Add(cycles)
	reg.Counter("psi_inferences_total", "logical inferences executed across all runs").Add(inferences)
	if cacheAccesses > 0 {
		reg.Counter("psi_cache_hits_total", "simulated cache hits across all runs").Add(cacheHits)
		reg.Counter("psi_cache_accesses_total", "simulated cache accesses across all runs").Add(cacheAccesses)
		reg.Gauge("psi_cache_hit_ratio", "cache hit ratio of the most recent run").
			Set(float64(cacheHits) / float64(cacheAccesses))
	}
	if wallNS > 0 {
		reg.Histogram("psi_session_duration_seconds", "host wall time per session",
			sessionDurationBounds).Observe(float64(wallNS) / 1e9)
	}
}

// RecordSweep accumulates one finished multi-configuration cache sweep
// into the telemetry metrics registry: how many cache configurations
// replayed in the single pass, how many trace records fed it, and how
// long the pass took on the host.
func RecordSweep(lanes int, records, wallNS int64) {
	sweeps, lanesC, recordsC, wall := sweepCounters()
	sweeps.Inc()
	lanesC.Add(int64(lanes))
	recordsC.Add(records)
	wall.Add(wallNS)
}

// sweepCounters returns the registry's cache-sweep counter families,
// registering them on first use.
func sweepCounters() (sweeps, lanes, records, wallNS *telemetry.Counter) {
	reg := telemetry.Default
	return reg.Counter("psi_cache_sweeps_total", "multi-configuration cache sweeps completed"),
		reg.Counter("psi_cache_sweep_lanes_total", "cache configurations replayed across all sweeps"),
		reg.Counter("psi_cache_sweep_records_total", "trace records fed to cache sweeps"),
		reg.Counter("psi_cache_sweep_wall_nanoseconds_total", "host wall time spent in cache sweeps")
}

// StartCPUProfile begins a CPU profile written to path and returns a
// stop function to defer. With an empty path it is a no-op.
func StartCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteMemProfile writes an allocs/heap profile to path after forcing a
// GC so the numbers reflect live data. With an empty path it is a no-op.
func WriteMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// metricsOnce guards the /metrics registration on the default mux
// (http.Handle panics on duplicate patterns).
var metricsOnce sync.Once

// registerFamilies pre-registers the always-present metric families so a
// scrape that lands before the first run completes (e.g. mid-simulation)
// sees them zero-valued instead of an empty exposition. Help strings
// must match the ones at the increment sites — the registry keeps the
// first it sees.
func registerFamilies() {
	reg := telemetry.Default
	reg.Counter("psi_runs_total", "simulation runs completed")
	reg.Counter("psi_cycles_simulated_total", "microcycles simulated across all runs")
	reg.Counter("psi_inferences_total", "logical inferences executed across all runs")
	reg.Counter("psi_degraded_cells_total", "evaluation cells dropped under -keep-going")
	sweepCounters()
	reg.Histogram("psi_session_duration_seconds", "host wall time per session",
		sessionDurationBounds)
}

// ServeDebug starts an HTTP listener on addr exposing /debug/pprof (via
// net/http/pprof), /debug/vars (expvar: Go's runtime memstats and cmdline)
// and /metrics (the telemetry registry in Prometheus text exposition).
// It returns the bound address — pass ":0" for an ephemeral port — and
// serves until the process exits. With an empty addr it is a no-op.
func ServeDebug(addr string) (string, error) {
	if addr == "" {
		return "", nil
	}
	metricsOnce.Do(func() {
		registerFamilies()
		http.Handle("/metrics", telemetry.Default.Handler())
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go http.Serve(ln, nil) //nolint:errcheck // best-effort debug endpoint
	return ln.Addr().String(), nil
}

// HostStats snapshots the Go runtime counters that NewRunReport's
// HostReport wants. Call once before the run and once after; Delta turns
// the pair into a HostReport.
type HostStats struct {
	Allocs     uint64
	AllocBytes uint64
}

// ReadHostStats reads the current cumulative allocation counters.
func ReadHostStats() HostStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return HostStats{Allocs: ms.Mallocs, AllocBytes: ms.TotalAlloc}
}

// Delta builds a HostReport covering the interval between two snapshots.
func (before HostStats) Delta(after HostStats, wallNS int64) *HostReport {
	return &HostReport{
		WallNS:     wallNS,
		Allocs:     after.Allocs - before.Allocs,
		AllocBytes: after.AllocBytes - before.AllocBytes,
	}
}
