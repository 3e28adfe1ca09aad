package cache_test

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/micro"
	"repro/internal/pmms"
	"repro/internal/word"
)

// mruStream draws a seeded access stream with the shapes the machine
// produces: stack-like sequential pushes, re-touches of recently used
// blocks (hits on the MRU way and on the other way) and scattered
// accesses over a working set larger than every tested cache.
func mruStream(seed int64, n int) []struct {
	op   micro.CacheOp
	phys uint32
	kind word.AreaID
} {
	r := rand.New(rand.NewSource(seed))
	out := make([]struct {
		op   micro.CacheOp
		phys uint32
		kind word.AreaID
	}, n)
	var recent [16]uint32
	top := uint32(0)
	for i := range out {
		o := &out[i]
		switch r.Intn(4) {
		case 0:
			top++
			o.phys = 1<<16 + top&0x7fff
			o.op = micro.OpWriteStack
		case 1, 2:
			o.phys = recent[r.Intn(len(recent))] + uint32(r.Intn(4))
			o.op = micro.OpRead
			if r.Intn(4) == 0 {
				o.op = micro.OpWrite
			}
		default:
			o.phys = uint32(r.Intn(1 << 17))
			o.op = micro.OpRead
			if r.Intn(3) == 0 {
				o.op = micro.OpWrite
			}
		}
		recent[r.Intn(len(recent))] = o.phys &^ 3
		o.kind = word.AreaID(r.Intn(5))
	}
	return out
}

// TestMRUHitMatchesSearch is the MRU hit path's differential: the same
// seeded stream runs through two caches of each configuration, one with
// the hit path forced off, and every access's (hit, stall) and every
// statistic must agree. The configurations cover every Figure 1 lane,
// every cache-lab grid lane, a victim buffer under each policy with
// store-through, and an armed injector, which must turn the path off
// (the test pins the guard too).
func TestMRUHitMatchesSearch(t *testing.T) {
	type lane struct {
		name string
		cfg  cache.Config
		inj  bool
	}
	var lanes []lane
	for _, c := range pmms.LegacyLanes() {
		lanes = append(lanes, lane{"legacy " + c.String(), c, false})
	}
	for _, c := range pmms.DefaultGrid().Configs() {
		lanes = append(lanes, lane{"grid " + c.String(), c, false})
	}
	for _, r := range []cache.Replacement{cache.ReplaceLRU, cache.ReplaceFIFO, cache.ReplaceRandom, cache.ReplacePLRU} {
		c := cache.Config{Words: 4096, Assoc: 4, BlockWords: 4, Policy: cache.StoreThrough, Replacement: r, Victims: 8}
		lanes = append(lanes, lane{"victim " + c.String(), c, false})
	}
	lanes = append(lanes, lane{"injector", cache.PSI, true})
	stream := mruStream(1, 200_000)
	for _, l := range lanes {
		t.Run(l.name, func(t *testing.T) {
			got, ref := cache.New(l.cfg), cache.New(l.cfg)
			if l.inj {
				// Armed but never firing: the hook runs on every access.
				never := &fault.Plan{Site: fault.SiteCache, After: 1 << 40, Seed: 1}
				for _, c := range []*cache.Cache{got, ref} {
					inj := never.New()
					inj.Arm()
					c.SetInjector(inj)
				}
			}
			if got.MRUHit() == l.inj {
				t.Fatalf("MRU hit path enabled = %v with injector = %v", got.MRUHit(), l.inj)
			}
			ref.ForceSearch()
			for i, a := range stream {
				h1, s1 := got.Access(a.op, a.phys, a.kind)
				h2, s2 := ref.Access(a.op, a.phys, a.kind)
				if h1 != h2 || s1 != s2 {
					t.Fatalf("access %d (%v @%d): (%v, %d) with the hit path, (%v, %d) without", i, a.op, a.phys, h1, s1, h2, s2)
				}
			}
			if got.Area != ref.Area || got.Total != ref.Total || got.StallNS != ref.StallNS ||
				got.Fills != ref.Fills || got.WriteBacks != ref.WriteBacks ||
				got.WriteThroughs != ref.WriteThroughs || got.VictimHits != ref.VictimHits {
				t.Errorf("statistics diverged:\nhit path %+v %+v stall %d fills %d wb %d wt %d vh %d\nsearch   %+v %+v stall %d fills %d wb %d wt %d vh %d",
					got.Total, got.Area, got.StallNS, got.Fills, got.WriteBacks, got.WriteThroughs, got.VictimHits,
					ref.Total, ref.Area, ref.StallNS, ref.Fills, ref.WriteBacks, ref.WriteThroughs, ref.VictimHits)
			}
			if got.Total.Hits == 0 || got.Total.Hits == got.Total.Accesses {
				t.Errorf("degenerate stream: %d hits of %d accesses", got.Total.Hits, got.Total.Accesses)
			}
		})
	}
}
