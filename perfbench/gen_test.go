package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/serve"
)

func TestGeneratorsAreSeeded(t *testing.T) {
	for _, w := range []string{"serve-small", "serve-distinct"} {
		a := workloadJobs(w, 7, phaseTimed, 40)
		b := workloadJobs(w, 7, phaseTimed, 40)
		c := workloadJobs(w, 8, phaseTimed, 40)
		same := true
		for i := range a {
			if !bytes.Equal(a[i].Body, b[i].Body) {
				t.Fatalf("%s: job %d differs between two runs of seed 7", w, i)
			}
			same = same && bytes.Equal(a[i].Body, c[i].Body)
		}
		if same {
			t.Fatalf("%s: seeds 7 and 8 give identical jobs", w)
		}
	}
}

func TestSmallRoundComposition(t *testing.T) {
	jobs := smallJobs(3, phaseTimed, smallRound())
	counts := map[string]int{}
	for _, j := range jobs {
		spec, err := serve.ParseSpec(bytes.NewReader(j.Body), serve.Defaults{})
		if err != nil {
			t.Fatalf("generated spec rejected: %v", err)
		}
		switch {
		case spec.Fault != "":
			counts["fault"]++
		case spec.Steps != 0:
			counts["step-limit"]++
		case spec.Engine == "fast":
			counts["corpus"]++
		default:
			counts["malformed"]++
		}
	}
	m := serve.DefaultMix()
	want := map[string]int{"corpus": m.Corpus, "malformed": m.Malformed, "step-limit": m.StepLimit, "fault": m.Fault}
	for k, v := range want {
		if counts[k] != v {
			t.Errorf("round has %d %s jobs, want %d", counts[k], k, v)
		}
	}
}

func TestDistinctKeysNeverRepeat(t *testing.T) {
	// Every phase of one serve-distinct run at the benchmark's rate and
	// run length, as run() draws them.
	cfg := benchConfig(t, "serve-distinct")
	seen := map[string]bool{}
	total := 0
	for _, j := range planServing(cfg).jobs() {
		spec, err := serve.ParseSpec(bytes.NewReader(j.Body), serve.Defaults{})
		if err != nil {
			t.Fatalf("generated spec rejected: %v", err)
		}
		k := spec.Key()
		if seen[k] {
			t.Fatalf("key %s repeats (job %s)", k, spec.Workload)
		}
		seen[k] = true
		total++
	}
	if total <= programCacheCap {
		t.Fatalf("run sends %d distinct keys; must exceed the %d-entry program cache", total, programCacheCap)
	}
}

func TestDistinctSizesSpanLadder(t *testing.T) {
	jobs := distinctJobs(5, phaseTimed, distinctRound)
	lo, hi, std := 1<<30, 0, 0
	for _, j := range jobs {
		n := bytes.Count([]byte(j.Spec.Program), []byte("\n"))
		lo, hi = min(lo, n), max(hi, n)
		if j.Spec.Stdlib {
			std++
		}
	}
	if lo < distinctMin || lo > distinctMin*3/2 || hi > distinctMax+1 || hi < distinctMax*2/3 {
		t.Fatalf("round sizes %d..%d clauses, want about %d..%d", lo, hi, distinctMin, distinctMax)
	}
	if std != distinctStdlib {
		t.Fatalf("%d stdlib jobs per round, want %d", std, distinctStdlib)
	}
}

// benchConfig parses the run configuration the benchmark's own
// BENCHMARK.json command gives for workload w.
func benchConfig(t *testing.T, w string) runConfig {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		RunSeconds int      `json:"run_seconds"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	args := append(b.Command[2:], "--workload", w, "--seed", "11",
		"--seconds", fmt.Sprint(b.RunSeconds), "--trace", "0")
	cfg, err := parseArgs(args)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}
