package main

import (
	"context"
	"fmt"
	"sync"

	psi "repro"
	"repro/internal/engine"
	"repro/internal/fault"
)

// expect is what the daemon must answer for one job: the termination
// class, and for a run that reached a machine the simulated step count,
// inferences and simulated time, plus the checked binding.
type expect struct {
	Class      string
	Ran        bool // a machine ran (false: the program never compiled)
	Steps      int64
	Inferences int64
	TimeNS     int64
	Binding    string
}

// reference runs a job through the psi library — the same source
// assembly, budgets, engine mode and fault plan the daemon applies —
// and checks the binding the generator promised.
func reference(j Job) (expect, error) {
	spec := j.Spec
	src := spec.Program
	if spec.Stdlib {
		src = psi.StdLib + "\n" + src
	}
	opts := psi.Options{Fast: spec.Engine == engine.ModeFast, MaxSteps: spec.Steps}
	if spec.Fault != "" {
		plan, err := fault.Parse(spec.Fault)
		if err != nil {
			return expect{}, fmt.Errorf("%s: %w", spec.Workload, err)
		}
		opts.Fault = plan
	}
	query := spec.Query
	if query == "" {
		query = "go"
	}
	m, err := psi.LoadProgram(src, opts)
	if err != nil {
		return expect{Class: "malformed"}, nil
	}
	sols, err := m.Solve(query)
	if err != nil {
		return expect{Class: "malformed"}, nil
	}
	b, found, err := psi.NextCtx(context.Background(), sols)
	e := expect{
		Class:      engine.ClassName(err),
		Ran:        true,
		Steps:      m.Steps(),
		Inferences: m.Inferences(),
		TimeNS:     m.TimeNS(),
	}
	if j.Var != "" {
		if !found {
			return e, fmt.Errorf("%s: reference run found no solution (%v)", spec.Workload, err)
		}
		e.Binding = b[j.Var].String()
		if e.Binding != j.Binding {
			return e, fmt.Errorf("%s: reference binds %s = %s, want %s", spec.Workload, j.Var, e.Binding, j.Binding)
		}
	}
	return e, nil
}

// references computes the expectation of every distinct job body on
// workers goroutines.
func references(jobs []Job, workers int) (checker, error) {
	var (
		mu    sync.Mutex
		out   = checker{}
		todo  []Job
		first error
		wg    sync.WaitGroup
	)
	seen := map[string]bool{}
	for _, j := range jobs {
		if !seen[string(j.Body)] {
			seen[string(j.Body)] = true
			todo = append(todo, j)
		}
	}
	next := make(chan Job)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				e, err := reference(j)
				mu.Lock()
				if err != nil && first == nil {
					first = err
				}
				out[string(j.Body)] = e
				mu.Unlock()
			}
		}()
	}
	for _, j := range todo {
		next <- j
	}
	close(next)
	wg.Wait()
	return out, first
}
