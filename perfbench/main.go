// Command perfbench is the repository's benchmark: one command that runs
// a named workload against the programs built from this checkout,
// checks every output, and prints each metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing; with --trace 1 a separate traced run adds the per-layer
// metrics. See README.md for the workloads and the metric map.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// rates are the fixed open-loop arrival rates of the serving
	// workloads, in jobs per second (set in BENCHMARK.json's command).
	rates map[string]float64
}

var workloads = []string{"paper-eval", "serve-small", "serve-distinct"}

// buildDir holds what run.sh builds (bin/) and the traced runs' Chrome
// trace files, relative to the repository root the command runs from.
const buildDir = ".bench_build"

var binDir = filepath.Join(buildDir, "bin")

// rateFlag parses repeated --rate workload=jobs/s flags.
type rateFlag map[string]float64

func (r rateFlag) String() string { return fmt.Sprint(map[string]float64(r)) }

func (r rateFlag) Set(v string) error {
	name, val, ok := strings.Cut(v, "=")
	f, err := strconv.ParseFloat(val, 64)
	if !ok || err != nil || f <= 0 {
		return fmt.Errorf("want workload=jobs-per-second, got %q", v)
	}
	r[name] = f
	return nil
}

func parseArgs(args []string) (runConfig, error) {
	cfg := runConfig{rates: map[string]float64{}}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&cfg.seconds, "seconds", 0, "length of the timed phase in seconds")
	traceN := fs.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	fs.Var(rateFlag(cfg.rates), "rate", "open-loop arrival rate, workload=jobs/s (repeatable)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.trace = *traceN == 1
	switch {
	case *traceN != 0 && *traceN != 1:
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	case cfg.seconds < 1:
		return cfg, fmt.Errorf("--seconds must be at least 1")
	}
	switch cfg.workload {
	case "paper-eval":
	case "serve-small", "serve-distinct":
		if cfg.rates[cfg.workload] <= 0 {
			return cfg, fmt.Errorf("no --rate for %s", cfg.workload)
		}
	default:
		return cfg, fmt.Errorf("unknown --workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	return cfg, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errInvalid marks a run whose measurement cannot be trusted (the load
// generator fell behind its schedule): not a regression, a discard.
var errInvalid = errors.New("run invalid")

func main() {
	cfg, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	printHost()

	var res *result
	switch cfg.workload {
	case "paper-eval":
		res, err = runPaper(cfg)
	default:
		res, err = runServing(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if errors.Is(err, errInvalid) {
			os.Exit(3)
		}
		os.Exit(1)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s is %v: the percentile falls on refused or lost jobs\n", name, m.Value)
			os.Exit(1)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// printHost prints the host block. The benchmark is meant for a small
// shared host: two cores shared with other tenants, so absolute times
// carry that host's noise and only medians over several runs compare.
func printHost() {
	h := struct {
		CPU        string `json:"cpu"`
		NProc      int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Go         string `json:"go"`
		Limitation string `json:"limitation"`
	}{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Limitation: "measured on a small shared host (2 cores on the reference machine); load, daemon workers and evaluation workers are all capped at nproc, and neighbours add noise",
	}
	b, _ := json.Marshal(h) // plain strings and ints: cannot fail
	fmt.Printf("host %s\n", b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
