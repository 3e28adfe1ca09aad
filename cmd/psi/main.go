// Command psi runs a KL0 (Prolog) program on the simulated PSI machine
// and reports the paper's dynamic measurements for the run.
//
// Usage:
//
//	psi [flags] program.pl
//	psi -i [program.pl]          # interactive query loop
//
// In batch mode the program is executed by running the goal given with
// -g (default "go") and printing each solution's bindings; with -all,
// every solution is enumerated. In interactive mode, type a goal per
// line; after an answer, ";" asks for the next solution and an empty
// line accepts.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

func main() {
	goal := flag.String("g", "go", "goal to run")
	all := flag.Bool("all", false, "enumerate every solution")
	report := flag.Bool("report", true, "print the dynamic-characteristics report")
	cacheWords := flag.Int("cache", 0, "cache capacity in words (0 = PSI 8K)")
	sets := flag.Int("sets", 0, "cache sets (0 = PSI two-set)")
	through := flag.Bool("store-through", false, "use the store-through write policy")
	nocache := flag.Bool("nocache", false, "disable the cache")
	baseline := flag.Bool("dec", false, "run on the DEC-10 baseline instead")
	interactive := flag.Bool("i", false, "interactive query loop")
	stdlib := flag.Bool("stdlib", false, "preload the standard library")
	disasm := flag.String("disasm", "", "disassemble a predicate (name/arity) instead of running")
	profile := flag.Bool("profile", false, "print the simulated per-predicate profile after the run")
	top := flag.Int("top", 10, "entries to show with -profile (0 = all)")
	jsonPath := flag.String("json", "", "write the structured run report (JSON) to this `file`")
	verbose := flag.Bool("v", false, "stream live progress (cycles, simulated ms, MLIPS) to stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU profile to this `file`")
	memProfile := flag.String("memprofile", "", "write a host heap profile to this `file`")
	httpAddr := flag.String("http", "", "serve /debug/pprof and /debug/vars on this `address`")
	timeout := flag.Duration("timeout", 0, "abort the run after this wall-clock `duration` (exit 5)")
	steps := flag.Int64("steps", 0, "bound the simulation to this many steps (0 = default 4e9; exit 4 when exceeded)")
	faultSpec := flag.String("fault", "", "inject a deterministic seeded fault, e.g. `site=mem,after=1000,seed=1` (exit 7 when detected)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON span trace to this `file` (view in Perfetto)")
	flag.Parse()

	var faultPlan *fault.Plan
	if *faultSpec != "" {
		p, err := fault.Parse(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psi: bad -fault: %v\n", err)
			os.Exit(2)
		}
		faultPlan = p
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// SIGINT cancels the run context: the machine stops at the next
	// CheckEvery slice and the process exits with the canceled code
	// instead of dying on the signal.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
	defer stop()

	stopCPU, err := obs.StartCPUProfile(*cpuProfile)
	die(err)
	defer stopCPU()
	defer func() { die(obs.WriteMemProfile(*memProfile)) }()
	if addr, err := obs.ServeDebug(*httpAddr); err != nil {
		die(err)
	} else if addr != "" {
		fmt.Fprintf(os.Stderr, "psi: debug listener on http://%s/debug/pprof\n", addr)
	}

	var src []byte
	switch {
	case flag.NArg() == 1:
		var err error
		src, err = os.ReadFile(flag.Arg(0))
		die(err)
	case flag.NArg() == 0 && *interactive:
		// interactive with no program: just the (optional) stdlib
	default:
		fmt.Fprintln(os.Stderr, "usage: psi [flags] program.pl")
		flag.Usage()
		os.Exit(2)
	}
	source := string(src)
	if *stdlib {
		source = psi.StdLib + "\n" + source
	}

	if *disasm != "" {
		showDisasm(source, *disasm, *baseline)
		return
	}

	if *interactive {
		repl(source, psi.Options{
			CacheWords:   *cacheWords,
			CacheSets:    *sets,
			StoreThrough: *through,
			NoCache:      *nocache,
			Out:          os.Stdout,
		}, *report)
		return
	}

	if *baseline {
		runBaseline(ctx, source, *goal, *all, *steps)
		return
	}

	opts := psi.Options{
		CacheWords:   *cacheWords,
		CacheSets:    *sets,
		StoreThrough: *through,
		NoCache:      *nocache,
		Out:          os.Stdout,
		Profile:      *profile,
		MaxSteps:     *steps,
		Fault:        faultPlan,
	}
	if *verbose {
		opts.Progress = obs.NewProgressPrinter(os.Stderr).Event
	}
	var spanLog *telemetry.SpanLog
	if *traceOut != "" {
		spanLog = telemetry.NewSpanLog()
		opts.Spans = spanLog
	}
	m, err := psi.LoadProgram(source, opts)
	die(err)
	workload := "<stdin>"
	if flag.NArg() == 1 {
		workload = flag.Arg(0)
	}
	hostBefore := obs.ReadHostStats()
	wallStart := time.Now()
	sols, err := m.Solve(*goal)
	die(err)
	n := 0
	var runErr error
	for {
		ans, ok, err := psi.NextCtx(ctx, sols)
		if err != nil {
			runErr = err
			break
		}
		if !ok {
			break
		}
		n++
		printAnswer(n, ans)
		if !*all {
			break
		}
	}
	if runErr == nil {
		if n == 0 {
			fmt.Println("no")
		}
		if *report {
			fmt.Print(m.Report())
		}
		if *profile {
			m.Profile(workload).Format(os.Stdout, *top)
		}
	}
	if *jsonPath != "" {
		// The report is written even for aborted runs: its termination
		// field records how the run ended.
		host := hostBefore.Delta(obs.ReadHostStats(), time.Since(wallStart).Nanoseconds())
		rep := m.RunReport(workload, host)
		rep.SetTermination(runErr)
		b, err := rep.JSON()
		die(err)
		die(os.WriteFile(*jsonPath, b, 0o644))
	}
	if spanLog != nil {
		// Like the JSON report, the trace is written even for aborted
		// runs — the spans up to the failure are the interesting ones.
		die(writeTrace(*traceOut, spanLog))
	}
	die(runErr)
}

// writeTrace dumps the span log as a Chrome trace-event JSON document.
func writeTrace(path string, log *telemetry.SpanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := log.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// repl reads goals from stdin and enumerates their answers on demand.
func repl(source string, opts psi.Options, report bool) {
	m, err := psi.LoadProgram(source, opts)
	die(err)
	in := bufio.NewScanner(os.Stdin)
	fmt.Println("PSI machine — type a goal, ';' for more answers, ctrl-D to quit.")
	for {
		fmt.Print("?- ")
		if !in.Scan() {
			fmt.Println()
			return
		}
		goal := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(in.Text()), "."))
		if goal == "" {
			continue
		}
		if goal == "halt" {
			return
		}
		sols, err := m.Solve(goal)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		n := 0
		for {
			ans, ok := sols.Next()
			if !ok {
				if err := sols.Err(); err != nil {
					fmt.Println("error:", err)
				} else if n == 0 {
					fmt.Println("no")
				} else {
					fmt.Println("no more solutions")
				}
				break
			}
			n++
			printAnswer(n, ans)
			fmt.Print("; for more> ")
			if !in.Scan() {
				fmt.Println()
				return
			}
			if strings.TrimSpace(in.Text()) != ";" {
				break
			}
		}
		if report {
			fmt.Print(m.Report())
		}
	}
}

func runBaseline(ctx context.Context, src, goal string, all bool, steps int64) {
	b, err := psi.LoadBaseline(src, os.Stdout)
	die(err)
	if steps > 0 {
		b.SetMaxUnits(steps)
	}
	sols, err := b.Solve(goal)
	die(err)
	n := 0
	for {
		ans, ok, err := psi.BaselineNextCtx(ctx, sols)
		die(err)
		if !ok {
			break
		}
		n++
		printAnswer(n, ans)
		if !all {
			break
		}
	}
	if n == 0 {
		fmt.Println("no")
	}
	fmt.Printf("DEC-10 baseline: %d calls, %.3f ms modelled\n",
		b.Calls(), float64(b.TimeNS())/1e6)
}

func printAnswer(n int, ans map[string]*psi.Term) {
	if len(ans) == 0 {
		fmt.Printf("yes (%d)\n", n)
		return
	}
	names := make([]string, 0, len(ans))
	for k := range ans {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("solution %d:", n)
	for _, k := range names {
		fmt.Printf(" %s = %s", k, ans[k])
	}
	fmt.Println()
}

// showDisasm prints the compiled code of one predicate.
func showDisasm(source, indicator string, baseline bool) {
	slash := strings.LastIndex(indicator, "/")
	if slash < 0 {
		die(fmt.Errorf("disasm: want name/arity, got %q", indicator))
	}
	name := indicator[:slash]
	arity, err := strconv.Atoi(indicator[slash+1:])
	die(err)
	if baseline {
		out, err := psi.DisasmBaseline(source, name, arity)
		die(err)
		fmt.Print(out)
		return
	}
	out, err := psi.DisasmPSI(source, name, arity)
	die(err)
	fmt.Print(out)
}

// die reports err on stderr, prefixed with its engine error class, and
// exits with the class's exit code (3 malformed, 4 step-limit,
// 5 deadline, 6 canceled, 7 fault, 1 anything else).
func die(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "psi: %s: %v\n", engine.ClassName(err), err)
		os.Exit(engine.ExitCode(err))
	}
}
