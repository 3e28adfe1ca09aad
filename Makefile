GO ?= go

.PHONY: build vet test race fuzz chaos telemetry serve soak golden bench cover staticcheck profile pgo verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race coverage: vet plus the race detector over the fast test set
# (-short skips the two full-evaluation runs; the always-on concurrency
# smoke tests still sweep the shared-program paths).
race:
	$(GO) vet ./...
	$(GO) test -race -short ./...

# Bounded fuzz passes over both native fuzz targets; seeds live in
# testdata/fuzz and double as regression cases under plain `go test`.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s .
	$(GO) test -run '^$$' -fuzz '^FuzzDifferentialQuery$$' -fuzztime 5s .
	$(GO) test -run '^$$' -fuzz '^FuzzTraceRead$$' -fuzztime 5s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzTraceRoundTrip$$' -fuzztime 5s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzClauseIndexSelection$$' -fuzztime 5s ./internal/kl0
	$(GO) test -run '^$$' -fuzz '^FuzzReplacerSelection$$' -fuzztime 5s ./internal/cache

# Chaos suite under the race detector: replay the seeded fault sweep
# against every injection site (mem, cache, wf, trace), check each run
# terminates with a classified fault (never an uncontained panic), and
# verify pooled machines and keep-going degradation stay byte-identical
# at any worker count after containment. -short skips the double
# full-evaluation determinism test, which the plain suite still runs.
chaos:
	$(GO) test -race -short -count=1 -run 'TestChaos|TestFaultedPool|TestKeepGoing|TestInjector|TestSweep|TestCorruptTrace' ./internal/fault ./internal/harness -v

# Telemetry gates: the profiler-vs-reference differential suite (every
# predicate's cycles, memory accesses and misses equal to the per-cycle
# reference on the Table 1 programs with and without the cache, after
# Reset, a step-limit abort, a cancel at a context poll, a contained
# fault and AddClauses, totals equal to Steps), the byte-identity of the run report with the
# profiler and spans attached, the flight-recorder dump on the fault
# path, and the in-suite profiler overhead guard.
telemetry:
	$(GO) test -count=1 -run 'TestSamplingDifferentialTable1|TestProfileStepLimitAbort|TestProfileCanceledAtPoll|TestProfileContainedFault|TestProfilePooledReset|TestProfileAcrossSolves|TestFastForcedExactByConsumers|TestFastSamplingProfilerKeepsFastByteIdentical|TestProfilerOverheadGuard|TestSamplingOverheadGuard|TestFaultReportCarriesFlightDump' -v .
	$(GO) test -count=1 -run 'TestOptionsSpansByteIdentical' -v ./internal/harness

# Serving battery under the race detector: the psid end-to-end suite
# (admission, budgets, fault containment, streaming, drain), the
# concurrency/byte-identity tests and the Table-1 differential against
# the psi library, plus the process-level SIGTERM drain tests.
serve:
	$(GO) test -race -count=1 ./internal/serve
	$(GO) test -count=1 -run 'TestPsid' .

# Chaos soak under the race detector: a self-hosted daemon soaked in
# seeded fault-mixed traffic from retrying clients, then audited — jobs
# served with at least one 200 ok, no transport deaths, only known
# classes, retry attempts and sheds consistent with the tally,
# byte-identical post-soak differential vs the psi library, no
# goroutine leaks, bounded heap.
# SOAK sets the duration (default 20s; CI uses a short pass).
SOAK ?= 20s
soak:
	$(GO) run -race ./cmd/soak -duration $(SOAK) -clients 4 -seed 1

# Rewrite the golden files under docs/ from the current output (only
# after an intended simulator change).
golden:
	$(GO) test ./internal/harness -run 'TestGolden|TestWorkerCountDeterminism' -update

# Re-record every host-cost gate with cmd/bench and fail on any miss:
# BENCH_engine.json (context polling overhead <= 2%), BENCH_fast.json
# (untapped tick >= 1.5x a per-cycle tap), BENCH_obs.json (profiler
# overhead <= 10%, every predicate equal to the per-cycle reference) and
# BENCH_pmms.json (classified grid <= 1.3x per lane vs the streaming
# Figure 1 lanes). `go run ./cmd/bench fast` runs one rung.
bench:
	$(GO) run ./cmd/bench

# Aggregate statement coverage over every package.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Static analysis beyond go vet. Not part of `make verify` because the
# tool is an external install: `go install honnef.co/go/tools/cmd/staticcheck@latest`.
staticcheck:
	staticcheck ./...

# Produce a sample host CPU profile of the simulator regenerating
# Table 1 (the table output goes to /dev/null; the profile to
# psibench.pprof for `go tool pprof`).
profile:
	$(GO) run ./cmd/psibench -cpuprofile psibench.pprof 1 > /dev/null
	@echo "wrote psibench.pprof; inspect with: $(GO) tool pprof psibench.pprof"

# Regenerate the profile-guided optimization profile: one host CPU
# profile of `psibench all`, committed as cmd/psibench/default.pgo and as
# the identical cmd/psid/default.pgo. `go build` applies each by default
# (-pgo=auto), inlining the simulator's hot call sites. Refresh after a
# change that moves those hot paths; outputs never depend on it.
pgo:
	$(GO) run ./cmd/psibench -cpuprofile default.pgo.tmp all > /dev/null
	cp default.pgo.tmp cmd/psibench/default.pgo
	mv default.pgo.tmp cmd/psid/default.pgo

verify: build race test fuzz chaos telemetry serve soak
