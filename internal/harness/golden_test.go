package harness

import (
	"encoding/json"
	"flag"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the golden files under docs/ from the current output")

// evalOnce computes the complete evaluation once per test binary, both
// strictly serially and with 8 workers, so the determinism, golden and
// run-count tests share the (expensive) runs. runs holds each
// evaluation's psi_runs_total delta; the callers are non-parallel
// top-level tests, so no other simulation runs meanwhile.
var evalOnce struct {
	sync.Once
	serial   *Evaluation
	parallel *Evaluation
	runs     [2]int64
	err      error
}

// psiRuns reads the process-wide count of completed PSI simulations.
func psiRuns() int64 {
	return telemetry.Default.Counter("psi_runs_total", "simulation runs completed").Value()
}

func fullEvalStructs(t *testing.T) (serial, parallel *Evaluation) {
	t.Helper()
	if testing.Short() {
		t.Skip("full evaluation skipped in -short mode")
	}
	evalOnce.Do(func() {
		n0 := psiRuns()
		evalOnce.serial, evalOnce.err = EvaluationWith(Options{Workers: 1})
		n1 := psiRuns()
		if evalOnce.err == nil {
			evalOnce.parallel, evalOnce.err = EvaluationWith(Options{Workers: 8})
		}
		evalOnce.runs = [2]int64{n1 - n0, psiRuns() - n1}
	})
	if evalOnce.err != nil {
		t.Fatal(evalOnce.err)
	}
	return evalOnce.serial, evalOnce.parallel
}

func fullEval(t *testing.T) (serial, parallel string) {
	t.Helper()
	e1, e2 := fullEvalStructs(t)
	return e1.Text(), e2.Text()
}

// TestWorkerCountDeterminism checks the tentpole guarantee: the entire
// formatted evaluation — every table, Figure 1 and the ablations — is
// byte-identical whether computed serially or on 8 workers.
func TestWorkerCountDeterminism(t *testing.T) {
	serial, parallel := fullEval(t)
	if serial == parallel {
		return
	}
	line, a, b := firstDiffLine(serial, parallel)
	t.Fatalf("serial and 8-worker output differ at line %d:\n serial:   %q\n parallel: %q", line, a, b)
}

// TestGoldenEvaluationOutput pins the full `psibench all` output to
// docs/evaluation-output.txt. Run with -update to rewrite the file after
// an intended change to the simulator.
func TestGoldenEvaluationOutput(t *testing.T) {
	serial, _ := fullEval(t)
	checkGolden(t, "../../docs/evaluation-output.txt", serial)
}

// TestGoldenEvaluationJSON pins the structured `psibench -json` document
// to docs/evaluation-output.json. Run with -update to rewrite the file
// after an intended change to the simulator or the report schema.
func TestGoldenEvaluationJSON(t *testing.T) {
	serial, parallel := fullEvalStructs(t)
	b, err := serial.JSON()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := parallel.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(pb) {
		line, x, y := firstDiffLine(string(b), string(pb))
		t.Errorf("serial and 8-worker JSON differ at line %d:\n serial:   %q\n parallel: %q", line, x, y)
	}
	checkGolden(t, "../../docs/evaluation-output.json", string(b))
}

// TestEvaluationJSONRoundTrip unmarshals the golden JSON document back
// into the report structs and re-serializes it: the bytes must agree,
// proving the schema loses nothing. Pure (de)serialization, so it runs
// even in -short mode.
func TestEvaluationJSONRoundTrip(t *testing.T) {
	want, err := os.ReadFile("../../docs/evaluation-output.json")
	if err != nil {
		t.Fatal(err)
	}
	var e Evaluation
	if err := json.Unmarshal(want, &e); err != nil {
		t.Fatalf("golden evaluation JSON does not unmarshal: %v", err)
	}
	if e.Schema != EvaluationSchema {
		t.Errorf("schema = %q, want %q", e.Schema, EvaluationSchema)
	}
	if e.Table6 == nil || e.Figure1 == nil || len(e.Table1) == 0 || len(e.Ablations) == 0 {
		t.Fatal("golden evaluation JSON is missing sections")
	}
	if e.CacheLab == nil || len(e.CacheLab.Lanes) == 0 || len(e.CacheLab.TopCauses) == 0 {
		t.Fatal("golden evaluation JSON is missing the cache-lab section")
	}
	got, err := e.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		line, a, b := firstDiffLine(string(got), string(want))
		t.Errorf("round trip differs from golden at line %d:\n got:  %q\n want: %q", line, a, b)
	}
}

// TestGoldenAblationOutput pins the `psibench ablate` output to
// docs/ablation-output.txt. The ablation study is the tail section of
// the full evaluation, so no extra simulation is needed.
func TestGoldenAblationOutput(t *testing.T) {
	serial, _ := fullEval(t)
	i := strings.Index(serial, "Ablation study:")
	if i < 0 {
		t.Fatal("full evaluation output has no ablation section")
	}
	tail := serial[i:]
	// The cache-lab section follows the ablations in the full report;
	// this golden pins only what `psibench ablate` prints.
	if j := strings.Index(tail, "Cache lab:"); j >= 0 {
		tail = tail[:j]
	}
	checkGolden(t, "../../docs/ablation-output.txt", tail)
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	line, a, b := firstDiffLine(got, string(want))
	t.Errorf("output differs from golden %s at line %d:\n got:  %q\n want: %q\n(re-run with -update after an intended simulator change)", path, line, a, b)
}

// firstDiffLine reports the 1-based line number and both lines at the
// first difference.
func firstDiffLine(a, b string) (int, string, string) {
	al := strings.Split(a, "\n")
	bl := strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return i + 1, al[i], bl[i]
		}
	}
	if len(al) != len(bl) {
		if len(al) > n {
			return n + 1, al[n], "<missing>"
		}
		return n + 1, "<missing>", bl[n]
	}
	return 0, "", ""
}
