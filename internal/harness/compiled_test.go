package harness

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/progs"
)

// resident reports whether key has an entry in the image cache.
func resident(key string) bool {
	images.mu.Lock()
	defer images.mu.Unlock()
	_, ok := images.byKey[key]
	return ok
}

// answer runs c's query once and returns the text of its binding for X.
func answer(t *testing.T, c *Compiled) string {
	t.Helper()
	l, err := c.Open(core.Config{MaxSteps: core.DefaultMaxSteps})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	if st, err := l.Session.Next(context.Background()); st != engine.Solution {
		t.Fatalf("no solution: %v", err)
	}
	return l.Session.Bindings()["X"].String()
}

// TestImageCacheKeysByContent compiles two benchmarks that share a name
// but not a source: each must get its own image and run its own
// program, because the cache knows a program by its content, not its
// label.
func TestImageCacheKeysByContent(t *testing.T) {
	one := progs.Benchmark{Name: "same-name", Source: "same_name_p(1).\n", Query: "same_name_p(X)"}
	two := progs.Benchmark{Name: "same-name", Source: "same_name_p(2).\n", Query: "same_name_p(X)"}
	c1, err := Compile(one)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Compile(two)
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Fatal("two sources under one name share a compiled image")
	}
	if x1, x2 := answer(t, c1), answer(t, c2); x1 != "1" || x2 != "2" {
		t.Errorf("answers X = %s and %s, want 1 and 2", x1, x2)
	}
	byKey := map[string]string{}
	for _, b := range append(progs.Table1(), progs.HardwareSet()...) {
		if other, ok := byKey[Key(b)]; ok && other != b.Name {
			t.Errorf("corpus programs %s and %s share a cache key", other, b.Name)
		}
		byKey[Key(b)] = b.Name
	}
	if relabeled := (progs.Benchmark{Name: "other-name", Source: one.Source, Query: one.Query}); Key(relabeled) != Key(one) {
		t.Error("the label changed the cache key")
	}
	if multi := (progs.Benchmark{Source: one.Source, Query: one.Query, Processes: 2}); Key(multi) == Key(one) {
		t.Error("the process count left the cache key unchanged")
	}
	if single := (progs.Benchmark{Source: one.Source, Query: one.Query, Processes: 1}); Key(single) != Key(one) {
		t.Error("Processes 1 and 0 (both one process) have different keys")
	}
	if handled := (progs.Benchmark{Source: one.Source, Query: one.Query, Handler: "true"}); Key(handled) == Key(one) {
		t.Error("the handler goal left the cache key unchanged")
	}
}

// cacheBench is the i-th program of a family of distinct one-fact
// programs, named after the test that compiles it.
func cacheBench(family string, i int) progs.Benchmark {
	return progs.Benchmark{Name: family, Source: fmt.Sprintf("%s(%d).\n", family, i), Query: family + "(X)"}
}

// fill compiles programs 0..imageCap-1 of a family in order, leaving
// the cache holding exactly them with program 0 the coldest.
func fill(t *testing.T, family string) {
	t.Helper()
	for i := 0; i < imageCap; i++ {
		if _, err := Compile(cacheBench(family, i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := Resident(); n != imageCap {
		t.Fatalf("%d images resident after %d distinct compiles, want %d", n, imageCap, imageCap)
	}
}

// TestImageCacheEvictsLeastRecentlyUsed compiles imageCap+1 distinct
// programs: the cache keeps imageCap of them and evicts the first.
func TestImageCacheEvictsLeastRecentlyUsed(t *testing.T) {
	const family = "lru_evict"
	fill(t, family)
	if _, err := Compile(cacheBench(family, imageCap)); err != nil {
		t.Fatal(err)
	}
	if n := Resident(); n != imageCap {
		t.Errorf("%d images resident after %d distinct compiles, want %d", n, imageCap+1, imageCap)
	}
	if resident(Key(cacheBench(family, 0))) {
		t.Error("the least recently used image stayed resident")
	}
	for _, i := range []int{1, imageCap - 1, imageCap} {
		if !resident(Key(cacheBench(family, i))) {
			t.Errorf("program %d was evicted; only the least recently used one should be", i)
		}
	}
}

// TestImageCacheHitRefreshesRecency hits the coldest image before the
// cache overflows: the next coldest is evicted instead.
func TestImageCacheHitRefreshesRecency(t *testing.T) {
	const family = "lru_refresh"
	fill(t, family)
	first, err := Compile(cacheBench(family, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(cacheBench(family, imageCap)); err != nil {
		t.Fatal(err)
	}
	if !resident(Key(cacheBench(family, 0))) {
		t.Fatal("a hit did not refresh the image's recency: it was evicted")
	}
	if resident(Key(cacheBench(family, 1))) {
		t.Error("the least recently used image after the hit stayed resident")
	}
	if again, _ := Compile(cacheBench(family, 0)); again != first {
		t.Error("the refreshed image was recompiled")
	}
}

// TestImageCacheDropsFailedCompile submits a program whose query does
// not parse: nothing stays resident for it, a resubmission compiles
// again, and the corrected query compiles. A failed entry removes
// itself only while it is still its key's entry.
func TestImageCacheDropsFailedCompile(t *testing.T) {
	bad := progs.Benchmark{Name: "broken", Source: "drop_failed(1).\n", Query: "drop_failed(X"}
	before := Resident() // a miss may evict a cold image, so the count may drop
	for i := 0; i < 2; i++ {
		if _, err := Compile(bad); err == nil {
			t.Fatal("a query that does not parse compiled")
		}
		if resident(Key(bad)) || Resident() > before {
			t.Fatalf("submission %d: the failed compile stayed resident (%d images, were %d)", i, Resident(), before)
		}
	}
	fixed := bad
	fixed.Query = "drop_failed(X)"
	c, err := Compile(fixed)
	if err != nil {
		t.Fatalf("the corrected program does not compile: %v", err)
	}
	if x := answer(t, c); x != "1" {
		t.Errorf("corrected program: X = %s, want 1", x)
	}

	key := "drop-stale-entry"
	stale := lookup(key)
	drop(stale)
	current := lookup(key)
	drop(stale)
	if !resident(key) {
		t.Error("a stale entry removed its key's current entry")
	}
	drop(current)
}

// TestImageCacheConcurrentCallersShareOneImage compiles one new program
// from several goroutines at once (run it under -race): all of them
// must receive the same image.
func TestImageCacheConcurrentCallersShareOneImage(t *testing.T) {
	var src string
	for i := 0; i < 500; i++ {
		src += fmt.Sprintf("shared_once(%d, [%d, %d]).\n", i, i, i+1)
	}
	b := progs.Benchmark{Name: "shared", Source: src, Query: "shared_once(7, X)"}
	const callers = 8
	got := make([]*Compiled, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			c, err := Compile(b)
			if err != nil {
				t.Error(err)
			}
			got[g] = c
		}()
	}
	close(start)
	wg.Wait()
	for g, c := range got {
		if c != got[0] {
			t.Fatalf("caller %d got another image than caller 0", g)
		}
	}
	if x := answer(t, got[0]); x != "[7,8]" {
		t.Errorf("X = %s, want [7,8]", x)
	}
}

// TestImageCacheHitAllocations pins the image cache's hit path: a
// lookup under a precomputed key allocates nothing, and a full Compile
// hit of a corpus program allocates only for hashing it into its key.
func TestImageCacheHitAllocations(t *testing.T) {
	b := progs.Benchmark{Name: "hit", Source: "hit_alloc(1).\n", Query: "hit_alloc(X)"}
	want, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("lookup", func(t *testing.T) {
		key := Key(b)
		if n := testing.AllocsPerRun(100, func() {
			if c, _ := compiled(key, b); c != want {
				t.Fatal("a hit returned another image")
			}
		}); n != 0 {
			t.Fatalf("a lookup by key allocates %.1f times", n)
		}
	})
	t.Run("Compile", func(t *testing.T) {
		for _, b := range append(progs.Table1(), progs.HardwareSet()...) {
			want, err := Compile(b)
			if err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(20, func() {
				if c, _ := Compile(b); c != want {
					t.Fatal("a hit returned another image")
				}
			}); n > 6 {
				t.Errorf("%s: a Compile hit allocates %.1f times, want at most 6", b.Name, n)
			}
		}
	})
}
