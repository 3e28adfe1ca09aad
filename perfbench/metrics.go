package main

import "fmt"

// metricDef names one metric and its unit. BENCHMARK.json lists the
// same names and units; TestMetricTablesMatchBenchmarkJSON keeps them in
// step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports all of them; see README.md for
// what each means on paper-eval, where the one job is the evaluation.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"eval_s", "s"},
	{"peak_rss_mb", "MB"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
	{"capacity_rps", "1/s"},
	{"ok_share", "share"},
}

// sectionNames are the ten harness *With sections in evaluation order.
var sectionNames = []string{
	"table1", "table2", "table3", "table4", "table5", "table6", "table7",
	"figure1", "ablations", "cache_lab",
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0 there (paper-eval sends no job through serve;
// the serving workloads run no evaluation section).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"serve.overhead_ms_p50", "ms"},
		{"serve.queue_depth_max", "count"},
		{"serve.rejected", "count"},
		{"client.retries", "count"},
		{"serve.spec_parse_us_p50", "us"},
		{"compile.calls", "count"},
		{"compile.misses", "count"},
		{"compile.hit_ratio", "share"},
		{"parse.ms_p50", "ms"},
		{"kl0.ms_p50", "ms"},
		{"pool.open_ms_p50", "ms"},
		{"pool.release_us_p50", "us"},
		{"core.fast_ns_per_step", "ns"},
		{"core.exact_ns_per_step", "ns"},
		{"core.steps", "count"},
		{"obs.report_us_p50", "us"},
	}
	for _, s := range sectionNames {
		defs = append(defs, metricDef{"harness.section_s." + s, "s"})
	}
	return append(defs,
		metricDef{"harness.section_gap_s", "s"},
		metricDef{"dec10.run_ms_total", "ms"},
		metricDef{"trace.collect_ms_total", "ms"},
		metricDef{"mapper.records_per_s", "1/s"},
		metricDef{"pmms.lanes_records_per_s", "1/s"},
		metricDef{"pmms.grid_records_per_s", "1/s"},
		metricDef{"go.gc_pause_ms_total", "ms"},
		metricDef{"go.alloc_mb_per_job", "MB"},
		metricDef{"loadgen.late_ms_p95", "ms"},
		metricDef{"bench.trace_overhead_s", "s"},
	)
}()

// sheet collects one run's metrics by name.
type sheet map[string]metric

func (s sheet) set(name string, v float64, unit, note string) {
	s[name] = metric{Value: v, Unit: unit}
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("  %-34s %14.6g %-6s%s\n", name, v, unit, note)
}

// pick returns the metrics of defs from s, with the unit the table
// fixes; a metric the run did not measure reads 0 (layer not exercised).
func (s sheet) pick(defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m := s[d.name]
		if m.Unit != "" && m.Unit != d.unit {
			panic(fmt.Sprintf("perfbench: %s measured in %s, table says %s", d.name, m.Unit, d.unit))
		}
		out[d.name] = metric{Value: m.Value, Unit: d.unit}
	}
	return out
}
