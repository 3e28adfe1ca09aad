// Command pmms is the cache memory simulator: it replays a COLLECT trace
// through arbitrary cache configurations, reporting hit ratios and the
// Figure 1 performance improvement ratio. Every mode replays all its
// configurations through one pmms.Sweeper in a single pass, fed as the
// records decode from the file, so the trace is never held in memory.
//
// Usage:
//
//	pmms trace.bin                  # the Figure 1 capacity sweep
//	pmms -words 4096 -sets 1 trace.bin
//	pmms -words 4096 -policy plru -victims 4 trace.bin
//	pmms -ablate trace.bin          # the paper's set/policy ablations
//	pmms -grid default -why trace.bin  # the policy grid, misses classified
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cache"
	"repro/internal/pmms"
	"repro/internal/trace"
)

func main() {
	words := flag.Int("words", 0, "cache capacity in words (0 = run the capacity sweep)")
	sets := flag.Int("sets", 2, "ways per set — what the paper calls 'sets' (1 = direct mapped)")
	policy := flag.String("policy", "lru", "replacement policy: lru, fifo, random or plru")
	victims := flag.Int("victims", 0, "victim-buffer entries behind the cache (0 = none)")
	seed := flag.Uint64("seed", 0, "random-policy seed (0 = the fixed default stream)")
	through := flag.Bool("store-through", false, "store-through write policy")
	ablate := flag.Bool("ablate", false, "run the one-set and store-through ablations")
	gridSpec := flag.String("grid", "", "replay a policy grid, e.g. 'caps=1024,4096;assoc=1,2;repl=lru,fifo' ('default' = the full lab grid)")
	why := flag.Bool("why", false, "classify every miss: first-touch / capacity / conflict")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pmms [flags] trace.bin")
		os.Exit(2)
	}

	var cfgs []cache.Config
	grid := *gridSpec != ""
	switch {
	case grid:
		g, err := pmms.ParseGrid(*gridSpec)
		die(err)
		cfgs = g.Configs()
	case *ablate:
		cfgs = pmms.LegacyLanes()[pmms.LanePSI:]
	case *words == 0:
		cfgs = pmms.LegacyLanes()[:pmms.SweepLanes]
	default:
		repl, err := cache.ParseReplacement(*policy)
		die(err)
		cfg := cache.Config{
			Words: *words, Assoc: *sets, BlockWords: 4, Policy: cache.StoreIn,
			Replacement: repl, Victims: *victims, Seed: *seed,
		}
		if *through {
			cfg.Policy = cache.StoreThrough
		}
		die(cfg.Validate())
		cfgs = []cache.Config{cfg}
	}

	s := pmms.NewSweeper(cfgs)
	if *why {
		// Attribute the reference lane's misses: the machine's own
		// configuration when the plan contains it, lane 0 otherwise.
		ref := 0
		for i, cfg := range cfgs {
			if cfg == cache.PSI {
				ref = i
				break
			}
		}
		s.Classify(ref)
	}
	f, err := os.Open(flag.Arg(0))
	die(err)
	die(trace.ReadStream(f, func(r trace.Rec) bool {
		s.Record(r)
		return true
	}))
	f.Close()
	fmt.Printf("trace: %d cycles, %d memory accesses\n", s.Cycles(), s.MemoryAccesses())

	switch {
	case grid:
		printGrid(s, cfgs, *why)
	case *ablate:
		fmt.Printf("two 4K-word sets, store-in:    %6.1f%%\n", s.Improvement(0))
		fmt.Printf("one 4K-word set,  store-in:    %6.1f%%\n", s.Improvement(1))
		fmt.Printf("two 4K-word sets, store-thru:  %6.1f%%\n", s.Improvement(2))
		printWhy(s, cfgs, *why)
	case *words == 0:
		fmt.Printf("%10s %14s %10s\n", "words", "improvement(%)", "hit-ratio")
		for i := range cfgs {
			p := s.PointAt(i)
			fmt.Printf("%10d %14.1f %10.4f\n", p.Words, p.Improvement, p.HitRatio)
		}
		printWhy(s, cfgs, *why)
	default:
		c := s.Cache(0)
		fmt.Printf("config %s: hit ratio %.4f, improvement %.1f%%\n",
			cfgs[0], c.HitRatio(), s.Improvement(0))
		for k := 0; k < 5; k++ {
			fmt.Printf("  area %d hit ratio %.4f (%d accesses)\n", k, c.Area[k].HitRatio(), c.Area[k].Accesses)
		}
		if c.VictimHits > 0 {
			fmt.Printf("  victim-buffer hits %d\n", c.VictimHits)
		}
		printWhy(s, cfgs, *why)
	}
}

// printGrid renders the grid lanes, with the classified miss columns
// when -why was given.
func printGrid(s *pmms.Sweeper, cfgs []cache.Config, why bool) {
	if why {
		fmt.Printf("%-8s %8s %5s %14s %10s %12s %10s %10s\n",
			"policy", "words", "ways", "improvement(%)", "hit-ratio", "first-touch", "capacity", "conflict")
	} else {
		fmt.Printf("%-8s %8s %5s %14s %10s\n",
			"policy", "words", "ways", "improvement(%)", "hit-ratio")
	}
	for i, cfg := range cfgs {
		if why {
			mb := s.Misses(i)
			fmt.Printf("%-8s %8d %5d %14.1f %10.4f %12d %10d %10d\n",
				cfg.Replacement, cfg.Words, cfg.Ways(), s.Improvement(i), s.Cache(i).HitRatio(),
				mb.FirstTouch, mb.Capacity, mb.Conflict)
		} else {
			fmt.Printf("%-8s %8d %5d %14.1f %10.4f\n",
				cfg.Replacement, cfg.Words, cfg.Ways(), s.Improvement(i), s.Cache(i).HitRatio())
		}
	}
}

// printWhy appends the classified miss breakdown of every lane to the
// classic (non-grid) reports. No-op unless -why was given.
func printWhy(s *pmms.Sweeper, cfgs []cache.Config, why bool) {
	if !why {
		return
	}
	fmt.Printf("miss classes (first-touch / capacity / conflict):\n")
	for i, cfg := range cfgs {
		mb := s.Misses(i)
		fmt.Printf("  %-40s %10d = %d / %d / %d\n",
			cfg.String(), mb.Misses, mb.FirstTouch, mb.Capacity, mb.Conflict)
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmms:", err)
		os.Exit(1)
	}
}
