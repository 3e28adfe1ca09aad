package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestInterleaveRoundRobinMinimum drives the timer with fake lanes on a
// fake clock: the lanes must alternate one run each per round, the
// warm-up round must not count, and each lane keeps its minimum.
func TestInterleaveRoundRobinMinimum(t *testing.T) {
	var clock time.Duration
	now := func() time.Duration { return clock }
	var calls []string
	fake := func(name string, costs ...time.Duration) lane {
		i := 0
		return lane{name, func() error {
			calls = append(calls, name)
			clock += costs[i]
			i++
			return nil
		}}
	}
	// The first cost of each lane is its warm-up run: cheapest of all,
	// so counting it would show.
	best, err := interleave(3, now,
		fake("a", 1, 50, 30, 40),
		fake("b", 2, 9, 7, 8))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "a", "b", "a", "b", "a", "b"}; !reflect.DeepEqual(calls, want) {
		t.Errorf("call order %v, want %v", calls, want)
	}
	if want := map[string]int64{"a": 30, "b": 7}; !reflect.DeepEqual(best, want) {
		t.Errorf("best = %v, want %v", best, want)
	}
}

// TestRecordSchema checks a record carries every psi-bench/v1 key.
func TestRecordSchema(t *testing.T) {
	rec := newRecord("bench", "method", map[string]int64{"x": 1}, atMost("c", 1, 2))
	buf, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema", "bench", "date", "host", "method", "lanes", "checks", "within_budget"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("record lacks %q: %s", key, buf)
		}
	}
	if doc["schema"] != schema {
		t.Errorf("schema = %v, want %s", doc["schema"], schema)
	}
	host, _ := doc["host"].(map[string]any)
	for _, key := range []string{"cpu", "cpus", "gomaxprocs", "go"} {
		if _, ok := host[key]; !ok {
			t.Errorf("host block lacks %q: %s", key, buf)
		}
	}
	checks, _ := doc["checks"].([]any)
	if len(checks) != 1 {
		t.Fatalf("checks = %v", doc["checks"])
	}
	for _, key := range []string{"name", "value", "limit", "ok"} {
		if _, ok := checks[0].(map[string]any)[key]; !ok {
			t.Errorf("check lacks %q: %s", key, buf)
		}
	}
}

// TestRunExitStatus runs fake rungs through the function main exits
// with: a check past its limit writes within_budget:false and yields
// status 1, an all-passing rung status 0, an unknown selector status 2.
func TestRunExitStatus(t *testing.T) {
	fake := func(name string, c check) rung {
		return rung{name, func() (record, error) {
			return newRecord(name, "fake", map[string]int64{"lane": 1}, c), nil
		}}
	}
	all := []rung{
		fake("pass", atLeast("speedup", 2, 1.5)),
		fake("miss", atMost("overhead_pct", 3, 2)),
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		args   []string
		status int
	}{
		{[]string{"pass"}, 0},
		{[]string{"miss"}, 1},
		{nil, 1},
		{[]string{"pass", "nope"}, 2},
	} {
		if got := run(tc.args, all, dir, io.Discard, io.Discard); got != tc.status {
			t.Errorf("run(%q) = %d, want %d", tc.args, got, tc.status)
		}
	}
	for name, want := range map[string]bool{"pass": true, "miss": false} {
		buf, err := os.ReadFile(filepath.Join(dir, "BENCH_"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var rec record
		if err := json.Unmarshal(buf, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.WithinBudget != want || rec.Checks[0].OK != want {
			t.Errorf("BENCH_%s.json: within_budget %v, check ok %v, want %v", name, rec.WithinBudget, rec.Checks[0].OK, want)
		}
	}
}
