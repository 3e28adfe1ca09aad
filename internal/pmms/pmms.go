// Package pmms implements the paper's cache memory simulator: it replays
// the cache-command stream of a COLLECT trace through arbitrary cache
// configurations, producing hit ratios, simulated times and the
// performance improvement ratio of Figure 1:
//
//	improvement = (Tnc/Tc - 1) * 100
//
// where Tnc is the execution time without a cache (every access pays the
// full main-memory latency) and Tc the time with the candidate cache.
// The Sweeper is the one replay path: it fans a single pass over the
// stream out to every configuration.
package pmms

// Point is one Figure 1 sample.
type Point struct {
	Words       int     `json:"words"`
	Improvement float64 `json:"improvement"`
	HitRatio    float64 `json:"hit_ratio"`
}

// sweepSizes is the Figure 1 capacity sweep: 8 words to 8K words.
var sweepSizes = [...]int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}
