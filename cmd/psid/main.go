// Command psid is the long-running PSI evaluation service: a stdlib
// net/http daemon multiplexing concurrent Prolog jobs over the pooled
// simulated machines and the shared compiled-program cache.
//
// Usage:
//
//	psid [-addr :8131] [-config psid.json] [flags]
//
// POST a job spec (psi-serve-job/v1 JSON: program, query, budgets) to
// /v1/solve and get back either the full psi-run-report/v1 document —
// byte-identical to `psi -json` for the same job — or, with
// "stream": true, an NDJSON/SSE stream of solutions ending in a report
// event. /healthz is liveness (always 200 while the process answers,
// drain included), /readyz is readiness (503 while draining); /metrics,
// /debug/pprof and /debug/vars are the ops plane. A job's wall budget
// (its timeout_ms, else the config's defaults.timeout_ms) is a context
// deadline the machine polls at its event boundary, nested
// sub-executions included, so an overrunning job ends with the
// deadline class within ~64K simulated steps.
//
// On SIGTERM or SIGINT the daemon drains gracefully: the listener
// closes (new connections are refused), queued jobs abort with 503,
// in-flight jobs run to completion — or, when -drain-timeout passes,
// are hard-canceled and end with their own canceled budget class — and
// the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	configPath := flag.String("config", "", "daemon config `file` (JSON; flags override it)")
	addr := flag.String("addr", "", "listen `address` (default :8131)")
	workers := flag.Int("workers", 0, "max concurrent jobs (default GOMAXPROCS)")
	queueDepth := flag.Int("queue", 0, "max queued jobs before 429 (default 4x workers; -1 = none)")
	drain := flag.Duration("drain-timeout", 0, "graceful-drain bound before in-flight jobs are canceled (default 30s)")
	programs := flag.Int("programs", 0, "compiled-program cache capacity (default 256)")
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU profile to this `file`")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: psid [flags]")
		flag.Usage()
		os.Exit(2)
	}

	cfg := serve.Config{}
	if *configPath != "" {
		var err error
		if cfg, err = serve.LoadConfig(*configPath); err != nil {
			fmt.Fprintf(os.Stderr, "psid: %v\n", err)
			os.Exit(2)
		}
	}
	if *addr != "" {
		cfg.Addr = *addr
	}
	if *workers != 0 {
		cfg.Workers = *workers
	}
	if *queueDepth != 0 {
		cfg.Queue = *queueDepth
	}
	if *drain != 0 {
		cfg.DrainTimeoutMS = drain.Milliseconds()
	}
	if *programs != 0 {
		cfg.Programs = *programs
	}

	stopCPU, err := obs.StartCPUProfile(*cpuProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "psid: %v\n", err)
		os.Exit(1)
	}
	defer stopCPU()

	s := serve.New(cfg)
	ln, err := net.Listen("tcp", s.Config().Addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "psid: %v\n", err)
		os.Exit(1)
	}
	// The listening line is the daemon's readiness contract: supervisors
	// (and the e2e battery) parse the bound address from it, so -addr :0
	// works for ephemeral ports.
	fmt.Fprintf(os.Stderr, "psid: listening on %s\n", ln.Addr())

	srv := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "psid: serve: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()

	fmt.Fprintf(os.Stderr, "psid: draining (timeout %s)\n", s.Config().DrainTimeout())
	s.BeginDrain()
	dctx, cancel := context.WithTimeout(context.Background(), s.Config().DrainTimeout())
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		// The drain deadline passed with jobs still running: cancel them
		// (each ends with the canceled class and a report saying so) and
		// give the responses a moment to flush before closing for good.
		fmt.Fprintln(os.Stderr, "psid: drain timeout, canceling in-flight jobs")
		s.HardCancel()
		fctx, fcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer fcancel()
		if err := srv.Shutdown(fctx); err != nil {
			srv.Close()
		}
	}
	fmt.Fprintln(os.Stderr, "psid: drained")
}
