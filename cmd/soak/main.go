// Command soak runs the chaos soak harness: a self-hosted psid daemon
// under sustained seeded load — corpus traffic mixed with malformed
// programs, tiny budgets, and faults rotating through every injection
// site — followed by an invariant audit:
//
//   - no request dies in transport, and every served response carries a
//     class the taxonomy knows;
//   - after the chaos, pooled machines still replay Table-1 programs
//     byte-identical to the psi library (`psi -json`);
//   - after drain and shutdown the process returns to its pre-soak
//     goroutine count — nothing leaked;
//   - the settled heap stays within a fixed allowance of the baseline.
//
// The whole run replays for a given -seed. Exits nonzero when any
// invariant fails; the report (violations included) goes to -out, or
// stdout when -out is empty. `make soak` runs this under the race
// detector, which is how the soak doubles as a concurrency gate.
//
// Usage:
//
//	soak -duration 20s -clients 4 -seed 1
//	soak -duration 5m -clients 8 -workers 4 -out SOAK.json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/serve"
)

func main() {
	duration := flag.Duration("duration", 20*time.Second, "soak length")
	clients := flag.Int("clients", 4, "concurrent retrying clients")
	seed := flag.Uint64("seed", 1, "mix + jitter seed (the soak replays per seed)")
	workers := flag.Int("workers", 0, "daemon workers (default GOMAXPROCS)")
	queue := flag.Int("queue", 0, "daemon queue bound (default 4x workers)")
	out := flag.String("out", "", "write the soak report to this `file` (default: stdout)")
	quiet := flag.Bool("q", false, "suppress progress lines")
	flag.Parse()

	opts := serve.SoakOptions{
		Duration: *duration,
		Clients:  *clients,
		Seed:     *seed,
		Server:   serve.Config{Workers: *workers, Queue: *queue},
	}
	if !*quiet {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	rep, err := serve.RunSoak(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "soak: %v\n", err)
		os.Exit(1)
	}
	b, err := rep.JSON()
	if err != nil {
		fmt.Fprintf(os.Stderr, "soak: %v\n", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "soak: %v\n", err)
			os.Exit(1)
		}
	} else {
		os.Stdout.Write(b)
	}
	if !rep.Passed() {
		fmt.Fprintf(os.Stderr, "soak: FAILED: %d invariant violations\n", len(rep.Violations))
		for _, v := range rep.Violations {
			fmt.Fprintf(os.Stderr, "soak:   - %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "soak: PASSED: %d served (%d retries, %d shed, %d expired), invariants held\n",
		rep.Served, rep.Retry.Retries, rep.Retry.Shed, rep.Expired)
}
