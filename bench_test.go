package psi

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper. Each benchmark regenerates its experiment and reports the
// headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Simulated milliseconds are
// deterministic; wall-clock ns/op measures the simulator itself.

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/harness"
	"repro/internal/micro"
	"repro/internal/pmms"
	"repro/internal/progs"
	"repro/internal/word"
)

// BenchmarkTable1 regenerates every row of Table 1: PSI and DEC-2060
// execution times and their ratio.
func BenchmarkTable1(b *testing.B) {
	for _, bench := range progs.Table1() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			var psiMS, decMS float64
			for i := 0; i < b.N; i++ {
				r, err := harness.RunPSI(bench, false)
				if err != nil {
					b.Fatal(err)
				}
				d, err := harness.RunDEC(bench)
				if err != nil {
					b.Fatal(err)
				}
				psiMS = float64(r.Machine.TimeNS()) / 1e6
				decMS = float64(d.TimeNS()) / 1e6
			}
			b.ReportMetric(psiMS, "psi-ms")
			b.ReportMetric(decMS, "dec-ms")
			b.ReportMetric(decMS/psiMS, "dec/psi")
			b.ReportMetric(bench.PaperDECMS/bench.PaperPSIMS, "paper-dec/psi")
		})
	}
}

// BenchmarkTable2 regenerates the firmware-module step ratios.
func BenchmarkTable2(b *testing.B) {
	for _, bench := range progs.Table2Set() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			var s *micro.Stats
			for i := 0; i < b.N; i++ {
				r, err := harness.RunPSI(bench, false)
				if err != nil {
					b.Fatal(err)
				}
				s = r.Machine.Stats()
			}
			for m := micro.Module(0); m < micro.NumModules; m++ {
				b.ReportMetric(s.ModuleRatio(m)*100, m.String()+"-%")
			}
		})
	}
}

// BenchmarkTable3 regenerates the cache-command rates.
func BenchmarkTable3(b *testing.B) {
	for _, bench := range progs.HardwareSet() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			var s *micro.Stats
			for i := 0; i < b.N; i++ {
				r, err := harness.RunPSI(bench, false)
				if err != nil {
					b.Fatal(err)
				}
				s = r.Machine.Stats()
			}
			b.ReportMetric(s.CacheOpRatio(micro.OpRead)*100, "read-%")
			b.ReportMetric(s.CacheOpRatio(micro.OpWriteStack)*100, "write-stack-%")
			b.ReportMetric(s.CacheOpRatio(micro.OpWrite)*100, "write-%")
		})
	}
}

// BenchmarkTable4 regenerates the per-area access distribution.
func BenchmarkTable4(b *testing.B) {
	for _, bench := range progs.HardwareSet() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			var s *micro.Stats
			for i := 0; i < b.N; i++ {
				r, err := harness.RunPSI(bench, false)
				if err != nil {
					b.Fatal(err)
				}
				s = r.Machine.Stats()
			}
			for k := word.AreaID(0); k < 5; k++ {
				b.ReportMetric(s.AreaAccessRatio(k)*100, k.String()+"-%")
			}
		})
	}
}

// BenchmarkTable5 regenerates the per-area cache hit ratios.
func BenchmarkTable5(b *testing.B) {
	for _, bench := range progs.HardwareSet() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			var c *cache.Cache
			for i := 0; i < b.N; i++ {
				r, err := harness.RunPSI(bench, false)
				if err != nil {
					b.Fatal(err)
				}
				c = r.Machine.Cache()
			}
			b.ReportMetric(c.HitRatio()*100, "hit-%")
			for k := 0; k < 5; k++ {
				b.ReportMetric(c.Area[k].HitRatio()*100, word.AreaID(k).String()+"-hit-%")
			}
		})
	}
}

// BenchmarkFigure1 regenerates the cache capacity sweep and ablations on
// the WINDOW trace.
func BenchmarkFigure1(b *testing.B) {
	var f *harness.Fig1
	for i := 0; i < b.N; i++ {
		var err error
		f, err = harness.Figure1With(harness.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range f.Points {
		switch p.Words {
		case 8, 128, 512, 8192:
			b.ReportMetric(p.Improvement, "improve@"+itoa(p.Words)+"w-%")
		}
	}
	b.ReportMetric(f.TwoSet8K-f.OneSet8K, "one-set-penalty")
	b.ReportMetric(f.TwoSet8K-f.StoreThrough, "store-in-gain")
}

// BenchmarkTable6 regenerates the work-file access-mode distribution.
func BenchmarkTable6(b *testing.B) {
	var t6 *harness.T6
	for i := 0; i < b.N; i++ {
		var err error
		t6, err = harness.Table6With(harness.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	for field, name := range []string{"src1", "src2", "dest"} {
		acc := t6.Usage.Accesses(field)
		b.ReportMetric(float64(acc)/float64(t6.Usage.Steps)*100, name+"-use-%")
	}
	// Direct addressing share of source-1 accesses (paper: >= 90%).
	direct := t6.Usage.RateOfAccesses(0, micro.ModeWF00) +
		t6.Usage.RateOfAccesses(0, micro.ModeWF10) +
		t6.Usage.RateOfAccesses(0, micro.ModeConst)
	b.ReportMetric(direct*100, "src1-direct-%")
}

// BenchmarkTable7 regenerates the branch-operation distribution.
func BenchmarkTable7(b *testing.B) {
	var cols []harness.T7Col
	for i := 0; i < b.N; i++ {
		var err error
		cols, err = harness.Table7With(harness.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range cols {
		b.ReportMetric(c.Branch, metricName(c.Name)+"-branch-%")
	}
}

// metricName makes a string safe as a testing.B metric unit.
func metricName(s string) string {
	s = strings.ReplaceAll(s, " ", "-")
	s = strings.ReplaceAll(s, "(", "")
	return strings.ReplaceAll(s, ")", "")
}

// BenchmarkEngineNreverse measures the simulator's own speed (wall-clock
// per simulated run of benchmark (1)).
func BenchmarkEngineNreverse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunPSI(progs.NReverse, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineDECNreverse measures the baseline engine's speed.
func BenchmarkEngineDECNreverse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunDEC(progs.NReverse); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheAccess measures the raw cache-model throughput.
func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(cache.PSI)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(micro.OpRead, uint32(i)&0xffff, word.AreaHeap)
	}
}

// BenchmarkPMMSReplay measures trace-replay throughput through a one-lane
// Sweeper (cycles/op scales with the traced run).
func BenchmarkPMMSReplay(b *testing.B) {
	r, err := harness.RunPSI(progs.NReverse, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pmms.NewSweeper([]cache.Config{cache.PSI}).ReplayLog(r.Trace)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkTablesParallel measures the wall-clock time of the complete
// evaluation (Tables 1-7, Figure 1 and the ablations) across worker-pool
// widths. Every width produces byte-identical output; only the
// wall-clock changes. j1 is the serial baseline.
func BenchmarkTablesParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("j"+itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := harness.EvaluationWith(harness.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				_ = e.Text()
			}
		})
	}
}

// BenchmarkCompileCache measures a cached benchmark run (compile skipped,
// machine pooled) — the per-cell cost the parallel tables actually pay.
func BenchmarkCompileCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.RunPSI(progs.QuickSort, false)
		if err != nil {
			b.Fatal(err)
		}
		r.Release()
	}
}

// BenchmarkProfilerOverhead compares a plain run (stats sink only)
// against the same run with the per-predicate profiler attached — the
// instrumentation overhead of the observability layer.
func BenchmarkProfilerOverhead(b *testing.B) {
	b.Run("stats-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := harness.RunPSI(progs.NReverse, false)
			if err != nil {
				b.Fatal(err)
			}
			r.Release()
		}
	})
	b.Run("profiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := harness.Profile(progs.NReverse); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestProfilerOverheadGuard keeps the profiler affordable: attaching it
// must not slow a simulated run by more than 4x. The real overhead is
// far smaller (one extra sink dispatch and a bucket update per cycle);
// the generous bound keeps the guard robust on noisy shared hosts.
func TestProfilerOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead guard skipped in -short mode")
	}
	// Warm the compile cache and machine pool so neither side pays
	// one-time costs.
	if _, err := harness.Profile(progs.NReverse); err != nil {
		t.Fatal(err)
	}
	r, err := harness.RunPSI(progs.NReverse, false)
	if err != nil {
		t.Fatal(err)
	}
	r.Release()

	best := func(profiled bool) time.Duration {
		min := time.Duration(1<<63 - 1)
		for i := 0; i < 5; i++ {
			start := time.Now()
			if profiled {
				if _, err := harness.Profile(progs.NReverse); err != nil {
					t.Fatal(err)
				}
			} else {
				r, err := harness.RunPSI(progs.NReverse, false)
				if err != nil {
					t.Fatal(err)
				}
				r.Release()
			}
			if d := time.Since(start); d < min {
				min = d
			}
		}
		return min
	}
	base := best(false)
	prof := best(true)
	t.Logf("stats-only %v, profiled %v (%.2fx)", base, prof, float64(prof)/float64(base))
	if prof > 4*base {
		t.Errorf("profiler overhead %.2fx exceeds the 4x budget (stats-only %v, profiled %v)",
			float64(prof)/float64(base), base, prof)
	}
}

// TestSamplingOverheadGuard keeps the sampler affordable in-suite: the
// tight 10% budget is enforced by the interleaved `go run ./cmd/bench
// obs` gate; here a generous 1.5x bound catches gross regressions (an
// accidental per-cycle hook, a lost fast path) without being flaky on
// noisy shared hosts.
func TestSamplingOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead guard skipped in -short mode")
	}
	// Warm the compile cache and machine pool so neither side pays
	// one-time costs.
	if _, err := harness.SampleProfile(progs.NReverse, 0); err != nil {
		t.Fatal(err)
	}
	best := func(sampled bool) time.Duration {
		min := time.Duration(1<<63 - 1)
		for i := 0; i < 5; i++ {
			start := time.Now()
			if sampled {
				if _, err := harness.SampleProfile(progs.NReverse, 0); err != nil {
					t.Fatal(err)
				}
			} else {
				r, err := harness.RunPSI(progs.NReverse, false)
				if err != nil {
					t.Fatal(err)
				}
				r.Release()
			}
			if d := time.Since(start); d < min {
				min = d
			}
		}
		return min
	}
	base := best(false)
	samp := best(true)
	t.Logf("fast-bare %v, fast-sampled %v (%.2fx)", base, samp, float64(samp)/float64(base))
	if float64(samp) > 1.5*float64(base) {
		t.Errorf("sampling overhead %.2fx exceeds the 1.5x guard (bare %v, sampled %v)",
			float64(samp)/float64(base), base, samp)
	}
}

// BenchmarkAblations regenerates the design-choice ablation study:
// simulated-time deltas for each hardware feature removed (and for the
// PSI-II indexing extension added).
func BenchmarkAblations(b *testing.B) {
	var rows []harness.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.AblationsWith(harness.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Workload == "nreverse (30)" || r.Workload == "BUP-2" {
			b.ReportMetric(r.DeltaPct, metricName(r.Feature)+"@"+metricName(r.Workload)+"-%")
		}
	}
}
