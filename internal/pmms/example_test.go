package pmms_test

import (
	"fmt"
	"log"

	psi "repro"
	"repro/internal/pmms"
)

// Reproduce the paper's Figure 1 method on a workload of your own:
// trace a run with COLLECT, then replay the trace through the PMMS
// cache simulator across capacities and policies to decide how much
// cache the program needs.
func ExampleSweeper() {
	const workload = `
mktree(0, leaf(1)) :- !.
mktree(D, node(L, R)) :- D > 0, D1 is D - 1, mktree(D1, L), mktree(D1, R).
tsum(leaf(X), X).
tsum(node(L, R), S) :- tsum(L, SL), tsum(R, SR), S is SL + SR.
go(S) :- mktree(9, T), tsum(T, S).
`
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
	// Output:
	// tree sum = 512 (259642 microcycles traced)
	//
	// capacity sweep (performance improvement ratio, Figure 1 style):
	//      words improvement(%)  hit-ratio
	//          8           17.2     0.3961
	//         16           27.3     0.5174
	//         32           40.0     0.6388
	//         64           57.7     0.7810
	//        128           72.2     0.8688
	//        256           80.9     0.9124
	//        512           83.4     0.9235
	//       1024           84.8     0.9280
	//       2048           85.5     0.9299
	//       4096           86.9     0.9307
	//       8192           90.4     0.9355
	//
	// policy and associativity ablations at the PSI's geometry:
	//   8192w/2-set/4w-block/store-in    improvement   90.4%
	//   4096w/1-set/4w-block/store-in    improvement   86.2%
	//   8192w/2-set/4w-block/store-through improvement   73.0%
}
