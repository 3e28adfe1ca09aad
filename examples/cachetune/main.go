// Cachetune: reproduce the paper's Figure 1 methodology on a workload of
// your own — trace a run with COLLECT, then replay the trace through the
// PMMS cache simulator across capacities and policies to decide how much
// cache the program actually needs.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/pmms"
)

const workload = `
mktree(0, leaf(1)) :- !.
mktree(D, node(L, R)) :- D > 0, D1 is D - 1, mktree(D1, L), mktree(D1, R).
tsum(leaf(X), X).
tsum(node(L, R), S) :- tsum(L, SL), tsum(R, SR), S is SL + SR.
go(S) :- mktree(9, T), tsum(T, S).
`

func main() {
	m, err := psi.LoadProgram(workload, psi.Options{Collect: true})
	if err != nil {
		log.Fatal(err)
	}
	sols, err := m.Solve("go(S)")
	if err != nil {
		log.Fatal(err)
	}
	if ans, ok := sols.Next(); ok {
		fmt.Printf("tree sum = %s (%d microcycles traced)\n\n", ans["S"], m.Trace().Len())
	}

	// One streaming pass replays the trace through every capacity and
	// ablation configuration at once.
	cfgs := pmms.LegacyLanes()
	s := pmms.NewSweeper(cfgs)
	s.ReplayLog(m.Trace())

	fmt.Println("capacity sweep (performance improvement ratio, Figure 1 style):")
	fmt.Printf("%10s %14s %10s\n", "words", "improvement(%)", "hit-ratio")
	for i := 0; i < pmms.SweepLanes; i++ {
		p := s.PointAt(i)
		fmt.Printf("%10d %14.1f %10.4f\n", p.Words, p.Improvement, p.HitRatio)
	}

	fmt.Println("\npolicy and associativity ablations at the PSI's geometry:")
	for i := pmms.SweepLanes; i < len(cfgs); i++ {
		fmt.Printf("  %-32s improvement %6.1f%%\n", cfgs[i], s.Improvement(i))
	}
}
