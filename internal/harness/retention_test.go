package harness

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/progs"
)

// TestCompiledImageRetainsNoParse compiles many fresh fact bases, keeps
// the compiled images and drops everything else. The live heap they
// leave must stay a small multiple of their code: an image holds its
// code, clause and range tables and nothing of its source (1.67x the
// code on this shape). The bound adds a 0.18x margin, less than the
// source text of this shape (about 0.27x the code), so an image that
// kept its text, or a parse, fails.
func TestCompiledImageRetainsNoParse(t *testing.T) {
	const images, clauses = 40, 2000
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	kept := make([]*Compiled, images)
	codeBytes := 0
	for i := range kept {
		var b strings.Builder
		for k := 0; k < clauses; k++ {
			fmt.Fprintf(&b, "f(%d, %d, [%d, %d, %d]).\n", k, i*clauses+k, k%10, k%100, k%1000)
		}
		key := fmt.Sprintf("retention-%d", i)
		c, err := CompileKeyed(key, progs.Benchmark{Name: key, Source: b.String(), Query: "f(7, X, _)"})
		if err != nil {
			t.Fatal(err)
		}
		Evict(key) // the test holds the image, not the process cache
		kept[i] = c
		codeBytes += len(c.Prog.Code) * 8
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(kept)
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d images: heap +%d KB, code %d KB (%.2fx)", images, growth>>10, codeBytes>>10, float64(growth)/float64(codeBytes))
	if limit := int64(codeBytes) * 185 / 100; growth > limit {
		t.Errorf("%d compiled images keep %d KB live, more than 1.85x their %d KB of code: a compiled image retains its source or its parse",
			images, growth>>10, codeBytes>>10)
	}
}
