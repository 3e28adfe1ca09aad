package serve

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestMixDeterminism pins the replayability contract: the same seed
// expands to the same job sequence, byte for byte, and different seeds
// diverge. This is what lets a load run be reproduced exactly.
func TestMixDeterminism(t *testing.T) {
	mix := DefaultMix()
	a := mix.Jobs(42, 50)
	b := mix.Jobs(42, 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different job sequences")
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("same seed produced different job JSON")
	}
	c := mix.Jobs(43, 50)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical sequences")
	}
}

// TestMixShape checks a long draw includes every job kind and that every
// generated spec passes validation (the daemon must never 400 its own
// load generator).
func TestMixShape(t *testing.T) {
	jobs := DefaultMix().Jobs(7, 400)
	kinds := map[string]int{}
	for i := range jobs {
		s := jobs[i]
		s.applyDefaults(Defaults{})
		if err := s.validate(); err != nil {
			t.Fatalf("generated job %d invalid: %v", i, err)
		}
		switch {
		case s.Fault != "":
			kinds["fault"]++
		case s.Workload == "mix-step-limit":
			kinds["step-limit"]++
		case s.Workload == "mix-malformed-runtime" || s.Workload == "mix-malformed-parse":
			kinds["malformed"]++
		default:
			kinds["corpus"]++
		}
	}
	for _, k := range []string{"corpus", "malformed", "step-limit", "fault"} {
		if kinds[k] == 0 {
			t.Errorf("400 draws produced no %s jobs (got %v)", k, kinds)
		}
	}
	if kinds["corpus"] < kinds["malformed"] {
		t.Errorf("mix inverted: %v", kinds)
	}
}
