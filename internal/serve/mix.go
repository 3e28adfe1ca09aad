package serve

import (
	"fmt"

	"repro/internal/progs"
)

// Job mixes: a deterministic seeded draw over the Table-1 corpus plus
// error and fault jobs. perfbench builds its serving workloads from
// Mix.Jobs; the chaos soak draws from its own fault-heavier mix
// (soakJob), which shares malformedPrograms and splitmix64.

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
