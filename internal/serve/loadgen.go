package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/progs"
)

// Load generation: a deterministic seeded client mix over the Table-1
// corpus plus error and fault jobs, and a driver that replays it with N
// concurrent retrying clients against a daemon, aggregating latency
// percentiles, throughput and the retry layer's behaviour into the
// BENCH_serve.json record.

// BenchSchema identifies the serving benchmark record. v2 added the
// retry block (attempts, retries, sheds, breaker transitions) when the
// load driver moved onto the retrying internal/client.
const BenchSchema = "psi-serve-bench/v2"

// Mix weights the job kinds a load client draws from. The zero value is
// unusable; start from DefaultMix.
type Mix struct {
	// Corpus draws a Table-1 program (the happy path).
	Corpus int `json:"corpus"`
	// Malformed draws a program that fails at compile or execution time
	// (the 4xx path).
	Malformed int `json:"malformed"`
	// StepLimit draws a looping program under a tiny step budget (the
	// budget path).
	StepLimit int `json:"step_limit"`
	// Fault draws a corpus program with a seeded injected fault (the
	// contained-500 path).
	Fault int `json:"fault"`
}

// DefaultMix is mostly corpus traffic with a steady trickle of each
// error class.
func DefaultMix() Mix { return Mix{Corpus: 13, Malformed: 1, StepLimit: 1, Fault: 1} }

// total is the weight sum.
func (m Mix) total() int { return m.Corpus + m.Malformed + m.StepLimit + m.Fault }

// splitmix64 is the same tiny deterministic PRNG step the fault layer
// uses: good dispersion, no global state, identical on every platform.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// malformedPrograms alternate between a compile-time failure and a
// runtime type error, covering both malformed paths.
var malformedPrograms = []JobSpec{
	{Program: "go :- X is 1 // 0, X = X.\n", Workload: "mix-malformed-runtime"},
	{Program: "go :- foo(.\n", Workload: "mix-malformed-parse"},
}

// Jobs expands a seed into the client's deterministic request sequence:
// the same (seed, n, mix) always yields byte-identical job specs, which
// is what makes a load run replayable.
func (m Mix) Jobs(seed uint64, n int) []JobSpec {
	if m.total() <= 0 {
		m = DefaultMix()
	}
	corpus := progs.Table1()
	jobs := make([]JobSpec, 0, n)
	state := seed
	for i := 0; i < n; i++ {
		state = splitmix64(state)
		pick := int(state % uint64(m.total()))
		state = splitmix64(state)
		switch {
		case pick < m.Corpus:
			b := corpus[state%uint64(len(corpus))]
			jobs = append(jobs, JobSpec{
				Program:  b.Source,
				Query:    b.Query,
				Workload: b.Name,
			})
		case pick < m.Corpus+m.Malformed:
			jobs = append(jobs, malformedPrograms[state%uint64(len(malformedPrograms))])
		case pick < m.Corpus+m.Malformed+m.StepLimit:
			jobs = append(jobs, JobSpec{
				Program:  "loop. loop :- loop.\ngo :- loop, fail.\n",
				Workload: "mix-step-limit",
				Steps:    int64(10_000 + state%10_000),
			})
		default:
			b := corpus[0] // nreverse: small, deterministic fault window
			jobs = append(jobs, JobSpec{
				Program:  b.Source,
				Query:    b.Query,
				Workload: "mix-fault-" + b.Name,
				Fault:    fmt.Sprintf("site=mem,after=%d,seed=%d", 2_000+state%50_000, 1+state%64),
			})
		}
	}
	return jobs
}

// LatencySummary are the percentiles of one load run, in nanoseconds.
type LatencySummary struct {
	P50NS  int64 `json:"p50_ns"`
	P90NS  int64 `json:"p90_ns"`
	P99NS  int64 `json:"p99_ns"`
	MaxNS  int64 `json:"max_ns"`
	MeanNS int64 `json:"mean_ns"`
}

// BenchReport is the BENCH_serve.json record: the workload shape, the
// aggregate latency distribution and the achieved throughput, the
// response breakdown by HTTP status and termination class, and what the
// retry layer did along the way.
type BenchReport struct {
	Schema        string           `json:"schema"`
	Clients       int              `json:"clients"`
	PerClient     int              `json:"requests_per_client"`
	Requests      int64            `json:"requests"`
	Seed          uint64           `json:"seed"`
	Mix           Mix              `json:"mix"`
	DurationNS    int64            `json:"duration_ns"`
	ThroughputRPS float64          `json:"throughput_rps"`
	Latency       LatencySummary   `json:"latency"`
	StatusCounts  map[string]int64 `json:"status_counts"`
	ClassCounts   map[string]int64 `json:"class_counts"`
	// Transport counts jobs that died outside the retry discipline (a
	// canceled context, an unreachable URL). Jobs the retry layer gave
	// up on deliberately — breaker fast-fails, exhausted attempt
	// budgets — are Unserved instead.
	Transport int64 `json:"transport_errors"`
	// Unserved counts jobs abandoned by the retry layer without a served
	// response: the circuit breaker was open or the attempt budget ran
	// out. Nonzero under a deliberately undersized or faulted daemon.
	Unserved int64 `json:"unserved"`
	// Retry aggregates the per-client retry/breaker counters.
	Retry client.Stats `json:"retry"`
}

// Validate checks the record is populated: schema, traffic, latency,
// throughput and the retry block all present and mutually consistent.
// The CI smoke run gates on it without timing assertions.
func (r *BenchReport) Validate() error {
	switch {
	case r.Schema != BenchSchema:
		return fmt.Errorf("bench: schema %q, want %q", r.Schema, BenchSchema)
	case r.Requests <= 0:
		return errors.New("bench: no requests recorded")
	case r.Transport > 0:
		return fmt.Errorf("bench: %d transport errors", r.Transport)
	case r.Latency.P50NS <= 0 || r.Latency.P99NS < r.Latency.P50NS:
		return fmt.Errorf("bench: implausible latency summary %+v", r.Latency)
	case r.ThroughputRPS <= 0:
		return errors.New("bench: zero throughput")
	case len(r.StatusCounts) == 0 || len(r.ClassCounts) == 0:
		return errors.New("bench: empty response breakdown")
	case r.StatusCounts["200"] == 0:
		return errors.New("bench: no successful corpus responses")
	case r.Retry.Attempts < r.Requests:
		return fmt.Errorf("bench: retry block inconsistent: %d attempts for %d served requests",
			r.Retry.Attempts, r.Requests)
	case r.Retry.Shed != r.Unserved:
		return fmt.Errorf("bench: shed mismatch: retry layer shed %d, record has %d unserved",
			r.Retry.Shed, r.Unserved)
	}
	return nil
}

// JSON renders the record (indented, trailing newline).
func (r *BenchReport) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// RunLoadClient hammers the daemon at baseURL with clients concurrent
// sequential clients, perClient requests each, drawn deterministically
// from the mix. Each load client is an internal/client.Client built
// from copt, with its jitter stream seeded seed+i so the whole run —
// job sequence and backoff delays — replays deterministically. Client i
// replays Jobs(seed+i, perClient); served responses (error statuses included)
// are tallied by status and termination class, jobs the retry layer
// abandoned (open breaker, exhausted attempts) count as Unserved, and
// anything that died outside the retry discipline counts as Transport.
func RunLoadClient(baseURL string, clients, perClient int, seed uint64, mix Mix, copt client.Options) *BenchReport {
	rep := &BenchReport{
		Schema:       BenchSchema,
		Clients:      clients,
		PerClient:    perClient,
		Seed:         seed,
		Mix:          mix,
		StatusCounts: map[string]int64{},
		ClassCounts:  map[string]int64{},
	}
	var (
		mu        sync.Mutex
		latencies []int64
		wg        sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			opts := copt
			opts.Seed = seed + uint64(n)
			cl := client.New(baseURL, opts)
			jobs := mix.Jobs(seed+uint64(n), perClient)
			for i := range jobs {
				body, err := json.Marshal(&jobs[i])
				if err != nil {
					panic(err) // specs are constructed here; cannot fail
				}
				t0 := time.Now()
				res, err := cl.Solve(context.Background(), body)
				lat := time.Since(t0).Nanoseconds()
				mu.Lock()
				switch {
				case res != nil:
					rep.Requests++
					latencies = append(latencies, lat)
					rep.StatusCounts[fmt.Sprint(res.Status)]++
					if res.Class != "" {
						rep.ClassCounts[res.Class]++
					}
				case errors.Is(err, client.ErrBreakerOpen) || errors.Is(err, client.ErrAttemptsExhausted):
					rep.Unserved++
				default:
					rep.Transport++
				}
				mu.Unlock()
			}
			st := cl.Stats()
			mu.Lock()
			rep.Retry.Add(st)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	rep.DurationNS = time.Since(start).Nanoseconds()
	if rep.DurationNS > 0 {
		rep.ThroughputRPS = float64(rep.Requests) / (float64(rep.DurationNS) / 1e9)
	}
	rep.Latency = summarize(latencies)
	return rep
}

// summarize computes the latency percentiles (nearest-rank on the
// sorted sample).
func summarize(ns []int64) LatencySummary {
	if len(ns) == 0 {
		return LatencySummary{}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	rank := func(q float64) int64 {
		i := int(q * float64(len(ns)-1))
		return ns[i]
	}
	var sum int64
	for _, v := range ns {
		sum += v
	}
	return LatencySummary{
		P50NS:  rank(0.50),
		P90NS:  rank(0.90),
		P99NS:  rank(0.99),
		MaxNS:  ns[len(ns)-1],
		MeanNS: sum / int64(len(ns)),
	}
}
