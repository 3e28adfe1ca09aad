package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	p := percentile(seq(200), 0.95)
	if p.Value != 190 || p.N != 200 || !p.OK {
		t.Fatalf("p95 of 1..200 = %+v, want 190 with n=200 supported", p)
	}
	if p := percentile(seq(200), 0.5); p.Value != 100 {
		t.Fatalf("p50 of 1..200 = %v, want 100", p.Value)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	// 199 samples leave only 9 beyond the 95th percentile.
	if p := percentile(seq(199), 0.95); p.OK {
		t.Fatalf("p95 of 199 samples reported as supported: %+v", p)
	}
	if p := percentile(seq(200), 0.95); !p.OK {
		t.Fatalf("p95 of 200 samples reported as unsupported: %+v", p)
	}
	if p := percentile(seq(20), 0.5); !p.OK {
		t.Fatalf("p50 of 20 samples unsupported: %+v", p)
	}
	if p := percentile(nil, 0.5); p.OK || p.N != 0 {
		t.Fatalf("empty sample: %+v", p)
	}
}

func TestRefusedJobMissesLimit(t *testing.T) {
	xs := seq(200)
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1) // 11 refused jobs: more than 5%
	}
	if p := percentile(xs, 0.95); !math.IsInf(p.Value, 1) {
		t.Fatalf("p95 with 5.5%% refused = %v, want +Inf", p.Value)
	}
	if p := percentile(xs, 0.5); math.IsInf(p.Value, 1) {
		t.Fatalf("p50 reached the refused jobs: %v", p.Value)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Fatalf("median empty = %v", m)
	}
}

func TestBusyWindowIgnoresDrainTail(t *testing.T) {
	// Two senders complete 100 jobs/s between them for 2s; the last job
	// then runs alone for another second.
	var ss []sample
	for i := 1; i <= 200; i++ {
		ss = append(ss, sample{doneAt: time.Duration(i) * 10 * time.Millisecond})
	}
	ss = append(ss, sample{doneAt: 3 * time.Second})
	n, d := busyWindow(ss, 2)
	if n != 200 || math.Abs(d-2) > 1e-9 {
		t.Fatalf("busy window = %v jobs in %vs, want 200 in 2s", n, d)
	}
}
