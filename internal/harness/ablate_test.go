package harness

import (
	"strings"
	"testing"
)

func TestAblations(t *testing.T) {
	rows, err := AblationsWith(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ablationVariants())*len(ablationWorkloads()) {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[string]AblationRow{}
	for _, r := range rows {
		byKey[r.Feature+"/"+r.Workload] = r
		if r.BaseMS <= 0 || r.VarMS <= 0 {
			t.Errorf("%s/%s: zero time", r.Feature, r.Workload)
		}
	}
	// The paper's conclusions, as ablation deltas:
	// removing LCO slows deterministic recursion;
	if r := byKey["no last-call optimization/nreverse (30)"]; r.DeltaPct < 1 {
		t.Errorf("LCO ablation should slow nreverse, delta %.1f%%", r.DeltaPct)
	}
	// removing the Write-Stack command slows stack-heavy code;
	if r := byKey["no Write-Stack command/nreverse (30)"]; r.DeltaPct < 0.5 {
		t.Errorf("Write-Stack ablation should slow nreverse, delta %.1f%%", r.DeltaPct)
	}
	// WF control-frame residency pays on every workload;
	for _, w := range ablationWorkloads() {
		if r := byKey["no control-frame buffers/"+w.Name]; r.DeltaPct < 0.5 {
			t.Errorf("control-buffer ablation on %s: delta %.1f%%", w.Name, r.DeltaPct)
		}
	}
	// the trail buffer is nearly free to remove (the paper recommended
	// reconsidering it);
	if r := byKey["no trail buffer/nreverse (30)"]; r.DeltaPct > 1 {
		t.Errorf("trail buffer should be near-worthless, delta %.1f%%", r.DeltaPct)
	}
	// and PSI-II indexing is a big win on the compiler-friendly programs.
	if r := byKey["PSI-II indexing/nreverse (30)"]; r.DeltaPct > -15 {
		t.Errorf("indexing should speed nreverse substantially, delta %.1f%%", r.DeltaPct)
	}
	if r := byKey["PSI-II indexing/BUP-2"]; r.DeltaPct > -20 {
		t.Errorf("indexing should speed BUP substantially, delta %.1f%%", r.DeltaPct)
	}
	out := FormatAblations(rows)
	if !strings.Contains(out, "PSI-II indexing") || !strings.Contains(out, "delta") {
		t.Error("format")
	}
}
