// Command collect is the COLLECT data-collection tool: it runs a
// benchmark workload (or a user program) on the PSI machine with full
// microcycle tracing and writes the trace to a binary file for the
// offline analyzers (pmms, psimap).
//
// Usage:
//
//	collect -w window-1 trace.bin        # a built-in workload
//	collect -p prog.pl -g go trace.bin   # a user program
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro"
	"repro/internal/harness"
	"repro/internal/progs"
	"repro/internal/trace"
)

func main() {
	workload := flag.String("w", "", "built-in workload name (window-1, 8 puzzle, BUP-3, ...)")
	program := flag.String("p", "", "Prolog program file")
	goal := flag.String("g", "go", "goal to run (with -p)")
	list := flag.Bool("list", false, "list built-in workload names")
	flag.Parse()

	if *list {
		for _, b := range workloads() {
			fmt.Println(b.Name)
		}
		return
	}
	if flag.NArg() != 1 || (*workload == "") == (*program == "") {
		fmt.Fprintln(os.Stderr, "usage: collect (-w workload | -p program.pl [-g goal]) trace.bin")
		os.Exit(2)
	}

	var log *trace.Log
	if *workload != "" {
		b, ok := find(*workload)
		if !ok {
			die(fmt.Errorf("unknown workload %q (try -list)", *workload))
		}
		r, err := harness.RunPSI(b, true)
		die(err)
		log = r.Trace
	} else {
		src, err := os.ReadFile(*program)
		die(err)
		m, err := psi.LoadProgram(string(src), psi.Options{Collect: true})
		die(err)
		sols, err := m.Solve(*goal)
		die(err)
		if _, ok := sols.Next(); !ok {
			die(fmt.Errorf("goal %q failed (%v)", *goal, sols.Err()))
		}
		log = m.Trace()
	}

	f, err := os.Create(flag.Arg(0))
	die(err)
	defer f.Close()
	die(log.Write(f))
	fmt.Printf("collected %d microcycles to %s\n", log.Len(), flag.Arg(0))
}

// workloads lists the built-in workloads once each: the hardware set,
// then the Table 1 programs it does not already contain.
func workloads() []progs.Benchmark {
	all := progs.HardwareSet()
	for _, b := range progs.Table1() {
		if !slices.ContainsFunc(all, func(h progs.Benchmark) bool { return h.Name == b.Name }) {
			all = append(all, b)
		}
	}
	return all
}

func find(name string) (progs.Benchmark, bool) {
	for _, b := range workloads() {
		if strings.EqualFold(b.Name, name) {
			return b, true
		}
	}
	return progs.Benchmark{}, false
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "collect:", err)
		os.Exit(1)
	}
}
