package main

import (
	"errors"
	"testing"
)

// TestLateGeneratorInvalidatesRun: when the generator starts its p95
// job later than lateLimit, the run is flagged invalid, not reported.
func TestLateGeneratorInvalidatesRun(t *testing.T) {
	run := func(lateMS float64, lateJobs int) error {
		r := &servingRun{
			plan:    servingPlan{rate: 50},
			setupS:  []float64{0.1},
			capRate: 100,
			senders: 2,
			tally:   tally{attempted: 300},
		}
		for i := 0; i < 300; i++ {
			s := sample{latencyMS: 10}
			if i < lateJobs {
				s.lateMS = lateMS
			}
			r.timed = append(r.timed, s)
		}
		return r.endToEnd(sheet{})
	}
	if err := run(300, 30); !errors.Is(err, errInvalid) {
		t.Fatalf("10%% of jobs 300 ms late: err = %v, want errInvalid", err)
	}
	if err := run(300, 10); err != nil {
		t.Fatalf("3%% of jobs late leaves the p95 on time: err = %v", err)
	}
	if err := run(0, 0); err != nil {
		t.Fatalf("on-time run: %v", err)
	}
}
