package core

import (
	"sync"
	"testing"
)

// TestAllClausesConcurrentGrowth has goroutines grow and read the shared
// identity candidate list at once (run it under -race): every caller
// must see {0..n-1}, capped so that an append cannot write into the
// shared array.
func TestAllClausesConcurrentGrowth(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := g; n < 5000; n += 97 * (g + 1) {
				seq := allClauses(n)
				if len(seq) != n || cap(seq) != n {
					t.Errorf("allClauses(%d): len %d cap %d", n, len(seq), cap(seq))
					return
				}
				for i, v := range seq {
					if v != i {
						t.Errorf("allClauses(%d)[%d] = %d", n, i, v)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
