package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/mapper"
	"repro/internal/pmms"
	"repro/internal/progs"
	"repro/internal/trace"
)

// golden is the paper evaluation's pinned text output.
const golden = "docs/evaluation-output.txt"

// startRuns is how many psibench starts paper-eval's setup_s takes the
// median of.
const startRuns = 9

// evalRun is one `psibench all` process.
type evalRun struct {
	wall  time.Duration
	rssMB float64
}

// runEvaluation runs `psibench all` with default flags and checks its
// output byte for byte against the golden.
func runEvaluation(want []byte) (evalRun, error) {
	var out, errb bytes.Buffer
	cmd := child(filepath.Join(binDir, "psibench"), "all")
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	err := cmd.Run()
	r := evalRun{wall: time.Since(t0)}
	if err != nil {
		return r, fmt.Errorf("psibench all: %w: %s", err, errb.String())
	}
	r.rssMB = maxRSSMB(cmd)
	if !bytes.Equal(out.Bytes(), want) {
		return r, fmt.Errorf("psibench all output differs from %s", golden)
	}
	return r, nil
}

// processStart is the median time to start psibench and have it exit
// (-h: flag parsing done, usage printed): the evaluation's set-up.
func processStart() (time.Duration, error) {
	var ds []float64
	for i := 0; i < startRuns; i++ {
		cmd := child(filepath.Join(binDir, "psibench"), "-h")
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("psibench -h: %w", err)
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

// runPaper is the paper-eval workload: `psibench all`, repeated until
// the run length is spent (at least once). The workload's one job is
// the evaluation, so its job metrics describe evaluations.
func runPaper(cfg runConfig) (*result, error) {
	want, err := os.ReadFile(golden)
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	setup, err := processStart()
	if err != nil {
		return nil, err
	}
	var runs []evalRun
	t0 := time.Now()
	for len(runs) == 0 || time.Since(t0) < time.Duration(cfg.seconds)*time.Second {
		r, err := runEvaluation(want)
		if err != nil {
			res := &result{Correct: false, Attempted: len(runs) + 1, Failed: 1, Metrics: map[string]metric{}}
			fmt.Println("WRONG:", err)
			return res, nil
		}
		runs = append(runs, r)
		if cfg.trace {
			break // one untraced evaluation is the traced run's baseline
		}
	}
	var walls, ms, rss []float64
	for _, r := range runs {
		walls = append(walls, r.wall.Seconds())
		ms = append(ms, float64(r.wall)/1e6)
		rss = append(rss, r.rssMB)
	}
	evalS := median(walls)
	n := len(runs)
	s := sheet{}
	fmt.Println("end-to-end:")
	s.set("setup_s", setup.Seconds(), "s", fmt.Sprintf("median of %d psibench starts", startRuns))
	s.set("eval_s", evalS, "s", fmt.Sprintf("median of %d `psibench all` runs, output = %s", n, golden))
	s.set("peak_rss_mb", median(rss), "MB", "psibench max RSS, median")
	s.set("job_p50_ms", median(ms), "ms", fmt.Sprintf("n=%d evaluations, median", n))
	s.set("job_p95_ms", percentile(ms, 0.95).Value, "ms", fmt.Sprintf("n=%d: too few for a p95, slowest evaluation", n))
	s.set("capacity_rps", 1/evalS, "1/s", "evaluations per second, 1 / eval_s")
	s.set("ok_share", 1, "share", "every evaluation matched the golden")
	res := &result{Correct: true, Attempted: n}
	if !cfg.trace {
		res.Metrics = s.pick(endToEnd)
		return res, nil
	}
	layers := sheet{}
	if err := tracePaper(cfg, evalS, want, layers); err != nil {
		return nil, err
	}
	res.Metrics = layers.pick(perLayer)
	return res, nil
}

// tracePaper runs the evaluation's layers in this process with a span
// around each public call: the ten harness sections (workers =
// GOMAXPROCS, as psibench), the Table-1 corpus on the exact engine and
// on the DEC-10 baseline, and COLLECT, MAP and PMMS over the traces of
// the Table 6/7 workloads.
func tracePaper(cfg runConfig, evalS float64, want []byte, s sheet) error {
	tr := newTracer()
	var job int64
	o := harness.Options{}
	e := &harness.Evaluation{Schema: harness.EvaluationSchema}
	sections := []func() error{
		func() (err error) { e.Table1, err = harness.Table1With(o); return },
		func() (err error) { e.Table2, err = harness.Table2With(o); return },
		func() (err error) { e.Table3, err = harness.Table3With(o); return },
		func() (err error) { e.Table4, err = harness.Table4With(o); return },
		func() (err error) { e.Table5, err = harness.Table5With(o); return },
		func() (err error) { e.Table6, err = harness.Table6With(o); return },
		func() (err error) { e.Table7, err = harness.Table7With(o); return },
		func() (err error) { e.Figure1, err = harness.Figure1With(o); return },
		func() (err error) { e.Ablations, err = harness.AblationsWith(o); return },
		func() (err error) { e.CacheLab, err = harness.CacheLabWith(o); return },
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	root := tr.begin(job, "harness.EvaluationWith", -1)
	secS := map[string]float64{}
	var secSum float64
	for i, run := range sections {
		sp := tr.begin(job, "harness."+sectionNames[i], root)
		err := run()
		d := tr.end(sp).Seconds()
		if err != nil {
			return fmt.Errorf("%s: %w", sectionNames[i], err)
		}
		secS[sectionNames[i]] = d
		secSum += d
	}
	tracedS := tr.end(root).Seconds()
	runtime.ReadMemStats(&ms1)
	if e.Text() != string(want) {
		return fmt.Errorf("in-process evaluation differs from %s", golden)
	}

	// Table-1 corpus, exact engine, one program at a time.
	job++
	var exactNS, exactSteps int64
	for _, b := range progs.Table1() {
		c, err := harness.Compile(b)
		if err != nil {
			return err
		}
		live, err := c.Open(core.Config{MaxSteps: 4_000_000_000})
		if err != nil {
			return err
		}
		sp := tr.begin(job, "core.Session.Next", -1)
		st, err := live.Session.Next(context.Background())
		d := tr.end(sp)
		if err != nil || st != engine.Solution {
			live.Release()
			return fmt.Errorf("%s: exact run: %v", b.Name, err)
		}
		exactNS += d.Nanoseconds()
		exactSteps += live.Machine.Stats().Steps
		live.Release()
	}

	// Table-1 corpus on the DEC-10 baseline.
	job++
	var decMS float64
	for _, b := range progs.Table1() {
		if !b.DEC {
			continue
		}
		sp := tr.begin(job, "harness.RunDEC", -1)
		_, err := harness.RunDEC(b)
		decMS += float64(tr.end(sp)) / 1e6
		if err != nil {
			return err
		}
	}

	// COLLECT, MAP and PMMS on the Table 6/7 workloads' traces.
	var collectMS float64
	var recs int64
	var mapD, lanesD, gridD time.Duration
	gridCfgs := pmms.DefaultGrid().Configs()
	ref := 0
	for i, c := range gridCfgs {
		if c == cache.PSI {
			ref = i
		}
	}
	for _, b := range []progs.Benchmark{progs.BUP3, progs.Window1, progs.Puzzle8} {
		job++
		sp := tr.begin(job, "harness.TraceFor", -1)
		l, err := harness.TraceFor(b)
		collectMS += float64(tr.end(sp)) / 1e6
		if err != nil {
			return err
		}
		recs += int64(l.Len())
		sp = tr.begin(job, "mapper.Analyze+Stats", -1)
		mapper.Analyze(l)
		mapper.Stats(l)
		mapD += tr.end(sp)
		lanesD += sweep(tr, job, "pmms.Sweeper.lanes", pmms.LegacyLanes(), -1, l)
		gridD += sweep(tr, job, "pmms.Sweeper.grid", gridCfgs, ref, l)
	}

	tr.printSelfTable("per-layer self time, paper-eval in process")
	path, err := tr.writeChrome(buildDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err != nil {
		return err
	}
	fmt.Printf("chrome trace: %s (%d spans)\n", path, tr.log.Len())

	fmt.Println("per-layer:")
	for _, n := range sectionNames {
		s.set("harness.section_s."+n, secS[n], "s", "")
	}
	s.set("harness.section_gap_s", evalS-secSum, "s", fmt.Sprintf("eval_s %.3fs - sum of sections %.3fs", evalS, secSum))
	s.set("core.exact_ns_per_step", float64(exactNS)/float64(exactSteps), "ns", "Table-1 corpus, Session.Next time / Stats().Steps")
	s.set("core.steps", float64(exactSteps), "count", "Table-1 corpus, exact; repeats exactly")
	s.set("dec10.run_ms_total", decMS, "ms", "harness.RunDEC over the Table-1 corpus")
	s.set("trace.collect_ms_total", collectMS, "ms", fmt.Sprintf("BUP-3, window-1, 8 puzzle: %d records", recs))
	s.set("mapper.records_per_s", float64(recs)/mapD.Seconds(), "1/s", "Analyze + Stats")
	s.set("pmms.lanes_records_per_s", float64(recs)/lanesD.Seconds(), "1/s", "14 legacy lanes")
	s.set("pmms.grid_records_per_s", float64(recs)/gridD.Seconds(), "1/s", fmt.Sprintf("DefaultGrid, %d lanes, classified", len(gridCfgs)))
	s.set("go.gc_pause_ms_total", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms", "in-process evaluation")
	s.set("go.alloc_mb_per_job", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20), "MB", "per evaluation")
	s.set("bench.trace_overhead_s", tracedS-evalS, "s", fmt.Sprintf("traced in-process evaluation %.3fs - untraced psibench %.3fs", tracedS, evalS))
	return nil
}

// sweep replays a trace through a Sweeper over cfgs (classified against
// lane ref when ref >= 0) under one span.
func sweep(tr *tracer, job int64, name string, cfgs []cache.Config, ref int, l *trace.Log) time.Duration {
	sw := pmms.NewSweeper(cfgs)
	if ref >= 0 {
		sw.Classify(ref)
	}
	sp := tr.begin(job, name, -1)
	sw.ReplayLog(l)
	return tr.end(sp)
}
