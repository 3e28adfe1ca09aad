package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/progs"
	"repro/internal/serve"
)

// Job is one generated request: the spec as sent, its encoded body, and
// what the daemon must answer for it.
type Job struct {
	Spec serve.JobSpec
	Body []byte
	// Var names the query variable whose first binding is checked
	// against Binding ("" = no binding check).
	Var     string
	Binding string
}

// Phases of a serving run. Each draws its jobs from its own seeded
// stream, so the warm-up, timed and capacity phases never share a job
// and serve-distinct keys stay unique across the whole run.
const (
	phaseWarm     = 1 // + setup index
	phaseTimed    = 10
	phaseCapacity = 11
)

// splitmix64 is the generator's PRNG step: no global state, identical
// on every platform, so a seed fixes the job bytes.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

func newRNG(seed uint64, phase int) *rng {
	return &rng{s: splitmix64(seed ^ uint64(phase)*0xd1b54a32d192ed03)}
}

func (r *rng) next() uint64 { r.s = splitmix64(r.s); return r.s }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle permutes idx in place (Fisher-Yates).
func (r *rng) shuffle(idx []int) {
	for i := len(idx) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
}

// shortPrograms are the corpus slots of a serve-small round: Table-1
// programs whose fast-engine run takes well under 100 ms on the host,
// 13 slots to match the corpus weight of serve.DefaultMix. The long
// ones (tarai, 8 queens all, BUP-3, the harmonizers) run in paper-eval.
// The three programs near 10 ms fill two slots each. With the error
// jobs, which end within a few milliseconds, that puts the round's
// median job inside this cluster: six jobs between 9.8 and 11.5 ms.
// Without it, the median would fall in the gap between about 11 and
// 18 ms, and a little queueing would move job_p50_ms across the gap
// from one run to the next.
func shortPrograms() []progs.Benchmark {
	return []progs.Benchmark{
		progs.ReverseFunction, progs.BUP1, progs.LCP1,
		progs.TreeTraverse, progs.TreeTraverse,
		progs.QueensFirst, progs.QueensFirst,
		progs.LCP2, progs.LCP2,
		progs.BUP2, progs.NReverse, progs.LispFib, progs.LCP3,
	}
}

// smallRound is the serve-small round size: every corpus slot once
// plus one job of each serve.DefaultMix error kind.
func smallRound() int {
	m := serve.DefaultMix()
	return m.Corpus + m.Malformed + m.StepLimit + m.Fault
}

// smallJobs generates n serve-small jobs for one phase. Jobs come in
// rounds that hold every corpus slot once and one malformed, step-limit
// and fault job (the serve.DefaultMix weights), shuffled by the seed:
// every seed sends the same composition in another order, with its own
// error-job variants.
func smallJobs(seed uint64, phase, n int) []Job {
	r := newRNG(seed, phase)
	corpus := shortPrograms()
	m := serve.DefaultMix()
	if len(corpus) != m.Corpus {
		panic("perfbench: short-program list out of step with serve.DefaultMix")
	}
	jobs := make([]Job, 0, n)
	for len(jobs) < n {
		idx := make([]int, smallRound())
		for i := range idx {
			idx[i] = i
		}
		r.shuffle(idx)
		for _, k := range idx {
			if len(jobs) == n {
				break
			}
			var j Job
			switch {
			case k < len(corpus):
				b := corpus[k]
				j = Job{
					Spec: serve.JobSpec{
						Program:  b.Source,
						Query:    b.Query,
						Workload: b.Name,
						Engine:   "fast",
						Stream:   true,
					},
					Var:     b.Var,
					Binding: b.Want,
				}
			case k == len(corpus):
				j.Spec = serve.Mix{Malformed: 1}.Jobs(r.next(), 1)[0]
			case k == len(corpus)+1:
				j.Spec = serve.Mix{StepLimit: 1}.Jobs(r.next(), 1)[0]
			default:
				j.Spec = serve.Mix{Fault: 1}.Jobs(r.next(), 1)[0]
			}
			jobs = append(jobs, j.encoded())
		}
	}
	return jobs
}

// distinctRound is the serve-distinct round: one fact base from each of
// distinctRound log-spaced size bands between distinctMin and
// distinctMax clauses, two of them with the standard library preloaded.
const (
	distinctRound  = 8
	distinctStdlib = 2
	distinctMin    = 300
	distinctMax    = 3000
)

// distinctJobs generates n serve-distinct jobs for one phase. Each job
// is a fresh fact base — f(K, V, [A, B, C]) for K = 0..size-1 with
// seeded values, plus an id/2 fact naming the job — and one short
// query whose answer the generator knows. No two jobs of a run share a
// program, so every job misses the daemon's compile cache.
func distinctJobs(seed uint64, phase, n int) []Job {
	r := newRNG(seed, phase)
	jobs := make([]Job, 0, n)
	for len(jobs) < n {
		rungs := make([]int, distinctRound)
		for i := range rungs {
			rungs[i] = i
		}
		r.shuffle(rungs)
		for pos, rung := range rungs {
			if len(jobs) == n {
				break
			}
			// Rung k draws its size log-uniformly from the k-th of
			// distinctRound equal log-spaced bands: every round covers
			// the whole range, and the sizes, hence the latencies, have
			// no gaps for a percentile to jump across.
			u := (float64(rung) + float64(r.intn(1<<20))/(1<<20)) / distinctRound
			size := int(distinctMin * math.Pow(float64(distinctMax)/distinctMin, u))
			jobs = append(jobs, factBase(r, seed, phase, len(jobs), size, pos < distinctStdlib))
		}
	}
	return jobs
}

// factBase writes one serve-distinct program and its query.
func factBase(r *rng, seed uint64, phase, i, size int, stdlib bool) Job {
	vals := make([]int, size)
	var b strings.Builder
	fmt.Fprintf(&b, "id(%d, %d, %d).\n", seed, phase, i)
	for k := 0; k < size; k++ {
		vals[k] = r.intn(1_000_000)
		fmt.Fprintf(&b, "f(%d, %d, [%d, %d, %d]).\n", k, vals[k], r.intn(1000), r.intn(1000), r.intn(1000))
	}
	k1, k2 := r.intn(size), r.intn(size)
	j := Job{
		Spec: serve.JobSpec{
			Program:  b.String(),
			Workload: fmt.Sprintf("facts-%d-%d", phase, i),
			Engine:   "fast",
			Stream:   true,
			Stdlib:   stdlib,
		},
		Var: "X",
	}
	if stdlib {
		j.Spec.Query = fmt.Sprintf("f(%d, A, _), f(%d, B, _), max_list([A, B], X)", k1, k2)
		j.Binding = fmt.Sprint(max(vals[k1], vals[k2]))
	} else {
		j.Spec.Query = fmt.Sprintf("f(%d, X, _)", k1)
		j.Binding = fmt.Sprint(vals[k1])
	}
	return j.encoded()
}

// encoded fills Body from Spec.
func (j Job) encoded() Job {
	b, err := json.Marshal(&j.Spec)
	if err != nil {
		panic(err) // a JobSpec always marshals
	}
	j.Body = b
	return j
}

// workloadJobs dispatches to the serving workload's generator.
func workloadJobs(workload string, seed uint64, phase, n int) []Job {
	if workload == "serve-distinct" {
		return distinctJobs(seed, phase, n)
	}
	return smallJobs(seed, phase, n)
}

// roundOf is the workload's round size; phases send whole rounds.
func roundOf(workload string) int {
	if workload == "serve-distinct" {
		return distinctRound
	}
	return smallRound()
}
