package harness

import (
	"testing"

	"repro/internal/progs"
)

// TestCompileKeyedHitAllocatesNothing pins the compile cache's hit path:
// a key already compiled returns its image without allocating, so a
// served job that reuses a program pays nothing for the lookup.
func TestCompileKeyedHitAllocatesNothing(t *testing.T) {
	b := progs.Benchmark{Name: "hit", Source: "p(1).\n", Query: "p(X)"}
	key := string([]byte("compile-keyed-hit")) // not a constant: a real probe key
	defer Evict(key)
	want, err := CompileKeyed(key, b)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if c, _ := CompileKeyed(key, b); c != want {
			t.Fatal("a hit returned another image")
		}
	}); n != 0 {
		t.Fatalf("a compile-cache hit allocates %.1f times", n)
	}
}
