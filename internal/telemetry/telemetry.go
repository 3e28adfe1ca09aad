// Package telemetry is the always-on observability layer of the PSI
// reproduction: instrumentation cheap enough to stay attached while the
// engine runs in its fast (batched) accounting mode.
//
// None of it consumes the simulated cycle stream, so its cost is
// independent of the cycle rate:
//
//   - SpanLog: host-time spans of compiles, sessions, Step(budget)
//     slices and harness cells, exported as Chrome trace-event JSON
//     (viewable in Perfetto / chrome://tracing);
//   - Registry: process-wide counters, gauges and histograms with
//     Prometheus-style text exposition (mounted at /metrics next to
//     /debug/pprof and /debug/vars);
//   - Flight: a fixed-size ring of recent per-session events, dumped
//     into fault reports so a chaos run leaves a post-mortem.
//
// The package is deliberately a leaf: it imports only the standard
// library, so every layer of the simulator (core, obs, harness, CLIs)
// can depend on it without cycles.
package telemetry
