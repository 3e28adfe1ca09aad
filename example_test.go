package psi_test

import (
	"fmt"
	"log"
	"os"

	psi "repro"
	"repro/internal/obs"
	"repro/internal/progs"
)

// Load a small KL0 (Prolog) program onto the simulated PSI machine,
// enumerate query answers, and read off the dynamic characteristics the
// ASPLOS'87 paper measured.
func ExampleLoadProgram() {
	const program = `
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
`
	m, err := psi.LoadProgram(program, psi.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// First question: all ways to split [1,2,3].
	sols, err := m.Solve("app(X, Y, [1,2,3])")
	if err != nil {
		log.Fatal(err)
	}
	for {
		ans, ok := sols.Next()
		if !ok {
			break
		}
		fmt.Printf("X = %-12s Y = %s\n", ans["X"], ans["Y"])
	}

	// Second question: naive reverse, the paper's benchmark (1).
	sols, err = m.Solve("nrev([1,2,3,4,5,6,7,8,9,10], R)")
	if err != nil {
		log.Fatal(err)
	}
	if ans, ok := sols.Next(); ok {
		fmt.Printf("reversed: %s\n\n", ans["R"])
	}

	// The run's dynamic characteristics, as the PSI evaluation reported
	// them: module mix, memory command rate, per-area traffic, cache.
	fmt.Print(m.Report())
	// Output:
	// X = []           Y = [1,2,3]
	// X = [1]          Y = [2,3]
	// X = [1,2]        Y = [3]
	// X = [1,2,3]      Y = []
	// reversed: [10,9,8,7,6,5,4,3,2,1]
	//
	// steps 11007, inferences 70, time 2.215 ms, 31.6 KLIPS
	// modules: control 39.8% unify 57.2% trail 2.9% get_arg 0.0% cut 0.0% built 0.0%
	// memory: 36.5% of steps (read 23.5%, write-stack 11.3%, write 1.7%)
	// areas: heap 31.5% global 39.0% local 2.2% control 26.9% trail 0.5%
	// cache: 8192w/2-set/4w-block/store-in, hit ratio 94.10%
}

// Run the paper's 8-queens benchmark on both engines, the PSI firmware
// interpreter and the DEC-10 compiled-code baseline, and compare them
// the way Table 1 does.
func ExampleLoadBaseline() {
	const queens = `
range(L, L, [L]) :- !.
range(L, H, [L|T]) :- L < H, L1 is L + 1, range(L1, H, T).
sel(X, [X|T], T).
sel(X, [H|T], [H|R]) :- sel(X, T, R).
safe(_, _, []).
safe(Q, D, [Q2|Qs]) :- Q =\= Q2 + D, Q =\= Q2 - D, D1 is D + 1, safe(Q, D1, Qs).
place([], Sol, Sol).
place(Cols, Placed, Sol) :-
    sel(Q, Cols, Rest), safe(Q, 1, Placed), place(Rest, [Q|Placed], Sol).
queens(N, Sol) :- range(1, N, Cols), place(Cols, [], Sol).
all :- queens(8, _), fail.
all.
`
	m, err := psi.LoadProgram(queens, psi.Options{})
	if err != nil {
		log.Fatal(err)
	}
	sols, err := m.Solve("queens(8, S)")
	if err != nil {
		log.Fatal(err)
	}
	n := 0
	first := ""
	for {
		ans, ok := sols.Next()
		if !ok {
			break
		}
		if n == 0 {
			first = ans["S"].String()
		}
		n++
	}
	fmt.Printf("8 queens: %d solutions, first %s\n", n, first)
	fmt.Printf("PSI: %.1f ms simulated, %.1f KLIPS\n",
		float64(m.TimeNS())/1e6, m.KLIPS())

	b, err := psi.LoadBaseline(queens, nil)
	if err != nil {
		log.Fatal(err)
	}
	bs, err := b.Solve("all")
	if err != nil {
		log.Fatal(err)
	}
	if _, ok := bs.Next(); !ok {
		log.Fatal("baseline failed")
	}
	fmt.Printf("DEC-10 baseline (all solutions): %.1f ms modelled\n", float64(b.TimeNS())/1e6)
	// Output:
	// 8 queens: 92 solutions, first [4,2,7,3,6,8,5,1]
	// PSI: 1386.1 ms simulated, 20.8 KLIPS
	// DEC-10 baseline (all solutions): 1856.3 ms modelled
}

// Run the HARMONIZER re-creation, the paper's backtracking-heavy music
// generation workload, and print the first harmonization it finds for a
// melody, plus the search's dynamic profile (deep backtracking shows up
// as trail and unify activity).
func ExampleMachine_Report() {
	m, err := psi.LoadProgram(progs.Harmonizer1.Source, psi.Options{})
	if err != nil {
		log.Fatal(err)
	}

	melody := "[n(3,q), n(4,q), n(2,h), n(1,q), n(6,q), n(7,h), n(1,w)]"
	sols, err := m.Solve("first_harm(" + melody + ", H)")
	if err != nil {
		log.Fatal(err)
	}
	ans, ok := sols.Next()
	if !ok {
		log.Fatalf("no harmonization found (%v)", sols.Err())
	}
	fmt.Println("melody :", melody)
	fmt.Println("harmony:", ans["H"])
	fmt.Println()
	fmt.Print(m.Report())
	// Output:
	// melody : [n(3,q), n(4,q), n(2,h), n(1,q), n(6,q), n(7,h), n(1,w)]
	// harmony: [h(ch(i,tonic,t(1,3,5)),1,n(3,q)),h(ch(ii,subdominant,t(2,4,6)),2,n(4,q)),h(ch(v,dominant,t(5,7,2)),5,n(2,h)),h(ch(i,tonic,t(1,3,5)),3,n(1,q)),h(ch(ii,subdominant,t(2,4,6)),2,n(6,q)),h(ch(v,dominant,t(5,7,2)),5,n(7,h)),h(ch(i,tonic,t(1,3,5)),3,n(1,w))]
	//
	// steps 10882, inferences 62, time 2.238 ms, 27.7 KLIPS
	// modules: control 34.9% unify 47.1% trail 2.9% get_arg 5.7% cut 2.1% built 7.3%
	// memory: 31.5% of steps (read 23.6%, write-stack 6.6%, write 1.4%)
	// areas: heap 47.3% global 25.9% local 0.9% control 24.2% trail 1.7%
	// cache: 8192w/2-set/4w-block/store-in, hit ratio 92.42%
}

// Compare the measured machine against the redesign the paper's
// conclusion announces, first-argument clause indexing ("improving the
// instruction code suitable for the compile time optimization"), on the
// benchmark the PSI loses, naive reverse, and the one it wins, BUP.
func ExampleFeatures() {
	run := func(b progs.Benchmark, feat psi.Features) float64 {
		m, err := psi.LoadProgram(b.Source, psi.Options{Features: feat})
		if err != nil {
			log.Fatal(err)
		}
		sols, err := m.Solve(b.Query)
		if err != nil {
			log.Fatal(err)
		}
		if _, ok := sols.Next(); !ok {
			log.Fatalf("%s failed: %v", b.Name, sols.Err())
		}
		return float64(m.TimeNS()) / 1e6
	}

	fmt.Println("PSI-1 vs PSI-II (first-argument indexing):")
	fmt.Printf("%-16s %10s %10s %8s\n", "workload", "PSI-1(ms)", "PSI-II(ms)", "speedup")
	for _, b := range []progs.Benchmark{progs.NReverse, progs.QuickSort, progs.BUP2, progs.QueensFirst} {
		base := run(b, psi.Features{})
		indexed := run(b, psi.Features{Indexing: true})
		fmt.Printf("%-16s %10.1f %10.1f %7.2fx\n", b.Name, base, indexed, base/indexed)
	}
	fmt.Println()
	fmt.Println("The redesign pays exactly where Table 1 says the PSI loses:")
	fmt.Println("deterministic, compiler-friendly programs whose choice points")
	fmt.Println("indexing removes.")
	// Output:
	// PSI-1 vs PSI-II (first-argument indexing):
	// workload          PSI-1(ms) PSI-II(ms)  speedup
	// nreverse (30)         177.6      122.7    1.45x
	// quick sort (50)       183.1      158.6    1.15x
	// BUP-2                 119.9       48.5    2.47x
	// 8 queens (1)           80.4       80.6    1.00x
	//
	// The redesign pays exactly where Table 1 says the PSI loses:
	// deterministic, compiler-friendly programs whose choice points
	// indexing removes.
}

// Run a workload with the profiler attached: a per-predicate flat
// profile of the simulated cycles, then the structured run report as
// JSON. The profiler attributes every micro-cycle to the predicate
// executing it (argument fetch to the caller, head unification to the
// callee, query glue to "<main>"), so the profile total always equals
// the machine's cycle count exactly.
func ExampleMachine_Profile() {
	// A miniature BUP-style parser workload: bottom-up chart parsing is
	// the paper's flagship benchmark, and its profile shows where the
	// cycles go.
	const program = `
word(the, det).  word(dog, n).  word(cat, n).  word(saw, v).

parse(S) :- np(S, R1), vp(R1, []).
np([W|R], R0) :- word(W, det), noun(R, R0).
noun([W|R], R) :- word(W, n).
vp([W|R], R0) :- word(W, v), np(R, R0).

len([], 0).
len([_|T], N) :- len(T, M), N is M + 1.

go :- sentences(Ss), run(Ss).
run([]).
run([S|Rest]) :- parse(S), len(S, _), run(Rest).
sentences([[the,dog,saw,the,cat],
           [the,cat,saw,the,dog],
           [the,dog,saw,the,dog]]).
`
	m, err := psi.LoadProgram(program, psi.Options{Profile: true})
	if err != nil {
		log.Fatal(err)
	}
	sols, err := m.Solve("go")
	if err != nil {
		log.Fatal(err)
	}
	if _, ok := sols.Next(); !ok {
		log.Fatalf("query failed: %v", sols.Err())
	}

	// The flat profile: which predicates did the machine spend its
	// cycles on, and how did they treat the memory system?
	prof := m.Profile("parser")
	prof.Format(os.Stdout, 0)

	if prof.TotalCycles != m.Steps() {
		log.Fatalf("attribution leak: profile %d cycles, machine %d", prof.TotalCycles, m.Steps())
	}
	fmt.Printf("\nevery one of the machine's %d cycles is attributed\n", m.Steps())

	// The same run as a structured report.
	report, err := m.RunReport("parser", nil).JSON()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrun report (%s):\n%s", obs.ReportSchema, report)
	// Output:
	// Simulated profile: parser (5936 micro-cycles, 10 predicates)
	//    flat%     cum%       cycles          mem     misses  predicate
	//   44.98%   44.98%         2670          912         70  len/2
	//   18.23%   63.21%         1082          396         56  word/2
	//   11.30%   74.51%          671          242         28  np/2
	//    8.69%   83.20%          516          168         11  noun/2
	//    7.55%   90.75%          448          190         22  run/1
	//    4.80%   95.55%          285           87          9  vp/2
	//    3.42%   98.97%          203           89          8  parse/1
	//    0.61%   99.58%           36           17          5  go/0
	//    0.27%   99.85%           16            4          2  sentences/1
	//    0.15%  100.00%            9            3          1  <main>
	//
	// every one of the machine's 5936 cycles is attributed
	//
	// run report (psi-run-report/v1):
	// {
	//   "schema": "psi-run-report/v1",
	//   "engine": "psi",
	//   "mode": "exact",
	//   "termination": "ok",
	//   "workload": "parser",
	//   "micro_cycles": 5936,
	//   "simulated_ns": 1211800,
	//   "inferences": 57,
	//   "klips": 47.03746492820597,
	//   "module_steps": [
	//     {
	//       "name": "control",
	//       "count": 2395
	//     },
	//     {
	//       "name": "unify",
	//       "count": 2976
	//     },
	//     {
	//       "name": "trail",
	//       "count": 139
	//     },
	//     {
	//       "name": "get_arg",
	//       "count": 201
	//     },
	//     {
	//       "name": "cut",
	//       "count": 0
	//     },
	//     {
	//       "name": "built",
	//       "count": 225
	//     }
	//   ],
	//   "wf_modes": {
	//     "src1": [
	//       {
	//         "name": "WF00-0F",
	//         "count": 1129
	//       },
	//       {
	//         "name": "WF10-3F",
	//         "count": 3346
	//       },
	//       {
	//         "name": "Constant",
	//         "count": 113
	//       },
	//       {
	//         "name": "@PDR/CDR",
	//         "count": 19
	//       },
	//       {
	//         "name": "@WFAR1",
	//         "count": 32
	//       },
	//       {
	//         "name": "@WFAR2",
	//         "count": 21
	//       },
	//       {
	//         "name": "@WFCBR",
	//         "count": 0
	//       }
	//     ],
	//     "src2": [
	//       {
	//         "name": "WF00-0F",
	//         "count": 1153
	//       },
	//       {
	//         "name": "WF10-3F",
	//         "count": 0
	//       },
	//       {
	//         "name": "Constant",
	//         "count": 0
	//       },
	//       {
	//         "name": "@PDR/CDR",
	//         "count": 0
	//       },
	//       {
	//         "name": "@WFAR1",
	//         "count": 0
	//       },
	//       {
	//         "name": "@WFAR2",
	//         "count": 0
	//       },
	//       {
	//         "name": "@WFCBR",
	//         "count": 0
	//       }
	//     ],
	//     "dest": [
	//       {
	//         "name": "WF00-0F",
	//         "count": 1286
	//       },
	//       {
	//         "name": "WF10-3F",
	//         "count": 902
	//       },
	//       {
	//         "name": "Constant",
	//         "count": 0
	//       },
	//       {
	//         "name": "@PDR/CDR",
	//         "count": 59
	//       },
	//       {
	//         "name": "@WFAR1",
	//         "count": 0
	//       },
	//       {
	//         "name": "@WFAR2",
	//         "count": 21
	//       },
	//       {
	//         "name": "@WFCBR",
	//         "count": 0
	//       }
	//     ]
	//   },
	//   "branch_ops": [
	//     {
	//       "name": "no operation",
	//       "count": 15
	//     },
	//     {
	//       "name": "if (cond) then",
	//       "count": 717
	//     },
	//     {
	//       "name": "if (not(cond)) then",
	//       "count": 1281
	//     },
	//     {
	//       "name": "if tag(src2) then",
	//       "count": 220
	//     },
	//     {
	//       "name": "case (tag(n,P/CDR))",
	//       "count": 655
	//     },
	//     {
	//       "name": "case (irn)",
	//       "count": 340
	//     },
	//     {
	//       "name": "case (ir-opcode)",
	//       "count": 156
	//     },
	//     {
	//       "name": "goto",
	//       "count": 4
	//     },
	//     {
	//       "name": "gosub",
	//       "count": 327
	//     },
	//     {
	//       "name": "return",
	//       "count": 125
	//     },
	//     {
	//       "name": "load-jr",
	//       "count": 125
	//     },
	//     {
	//       "name": "goto @jr",
	//       "count": 0
	//     },
	//     {
	//       "name": "no operation",
	//       "count": 843
	//     },
	//     {
	//       "name": "goto",
	//       "count": 656
	//     },
	//     {
	//       "name": "no operation",
	//       "count": 472
	//     },
	//     {
	//       "name": "goto @jr",
	//       "count": 0
	//     }
	//   ],
	//   "branch_data_cycles": 3793,
	//   "cache_ops": [
	//     {
	//       "name": "read",
	//       "count": 1325
	//     },
	//     {
	//       "name": "write",
	//       "count": 69
	//     },
	//     {
	//       "name": "write-stack",
	//       "count": 714
	//     }
	//   ],
	//   "cache": {
	//     "config": "8192w/2-set/4w-block/store-in",
	//     "areas": [
	//       {
	//         "area": "heap",
	//         "accesses": 816,
	//         "hits": 775,
	//         "hit_ratio": 0.9497549019607843
	//       },
	//       {
	//         "area": "global",
	//         "accesses": 511,
	//         "hits": 476,
	//         "hit_ratio": 0.9315068493150684
	//       },
	//       {
	//         "area": "local",
	//         "accesses": 37,
	//         "hits": 30,
	//         "hit_ratio": 0.8108108108108109
	//       },
	//       {
	//         "area": "control",
	//         "accesses": 723,
	//         "hits": 600,
	//         "hit_ratio": 0.8298755186721992
	//       },
	//       {
	//         "area": "trail",
	//         "accesses": 21,
	//         "hits": 15,
	//         "hit_ratio": 0.7142857142857143
	//       }
	//     ],
	//     "total": {
	//       "area": "total",
	//       "accesses": 2108,
	//       "hits": 1896,
	//       "hit_ratio": 0.8994307400379506
	//     },
	//     "stall_ns": 24600,
	//     "fills": 41,
	//     "write_backs": 0,
	//     "write_throughs": 0
	//   },
	//   "memory": {
	//     "heap_high_water_words": 163,
	//     "stack_high_water_words": [
	//       {
	//         "name": "global",
	//         "count": 154
	//       },
	//       {
	//         "name": "local",
	//         "count": 41
	//       },
	//       {
	//         "name": "control",
	//         "count": 506
	//       },
	//       {
	//         "name": "trail",
	//         "count": 37
	//       }
	//     ],
	//     "physical_pages": 5
	//   }
	// }
}
