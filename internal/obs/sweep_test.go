package obs

import (
	"sync"
	"testing"
)

// TestSweepStatsConcurrentWriters hammers the sweep counters from
// parallel writers with interleaved readers — the PMMS sweeps record
// from the harness worker pool — and checks no update is lost; run
// with -race. The counters live in the process-wide registry, so the
// test asserts on deltas, not absolute values.
func TestSweepStatsConcurrentWriters(t *testing.T) {
	sweeps, lanes, records, wall := sweepCounters()
	before := [4]int64{sweeps.Value(), lanes.Value(), records.Value(), wall.Value()}
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				RecordSweeps(1, 3, 1000, 7)
			}
		}()
	}
	// Interleaved readers must observe monotonic counts (no torn reads
	// flagged by the race detector).
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := before[0]
		for i := 0; i < 100; i++ {
			v := sweeps.Value()
			if v < last {
				t.Error("sweep counter went backwards")
				return
			}
			last = v
		}
	}()
	wg.Wait()
	const n = writers * perWriter
	after := [4]int64{sweeps.Value(), lanes.Value(), records.Value(), wall.Value()}
	for i, want := range [4]int64{n, 3 * n, 1000 * n, 7 * n} {
		if got := after[i] - before[i]; got != want {
			t.Errorf("%s delta = %d, want %d", [4]string{"sweeps", "lanes", "records", "wall ns"}[i], got, want)
		}
	}
}
