package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func parse(t *testing.T, body string, d Defaults) (*JobSpec, error) {
	t.Helper()
	return ParseSpec(strings.NewReader(body), d)
}

func TestParseSpecDefaults(t *testing.T) {
	s, err := parse(t, `{"program": "go :- true.\n"}`, Defaults{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Query != "go" {
		t.Errorf("default query = %q, want go", s.Query)
	}
	if s.Workload != "<job>" {
		t.Errorf("default workload = %q, want <job>", s.Workload)
	}
	if s.Steps != 0 || s.TimeoutMS != 0 {
		t.Errorf("budgets defaulted to %d/%d, want 0/0 without daemon defaults", s.Steps, s.TimeoutMS)
	}
}

func TestParseSpecDaemonDefaults(t *testing.T) {
	d := Defaults{Query: "main", Steps: 5000, TimeoutMS: 250, Engine: "fast", Limit: 3}
	s, err := parse(t, `{"program": "main :- true.\n"}`, d)
	if err != nil {
		t.Fatal(err)
	}
	if s.Query != "main" || s.Steps != 5000 || s.TimeoutMS != 250 || s.Engine != "fast" || s.Limit != 3 {
		t.Errorf("daemon defaults not applied: %+v", s)
	}
	// Explicit spec fields win over daemon defaults.
	s, err = parse(t, `{"program": "go :- true.\n", "query": "go", "steps": 9, "timeout_ms": 9}`, d)
	if err != nil {
		t.Fatal(err)
	}
	if s.Query != "go" || s.Steps != 9 || s.TimeoutMS != 9 {
		t.Errorf("spec fields overridden by defaults: %+v", s)
	}
}

func TestParseSpecRejections(t *testing.T) {
	cases := []struct {
		name, body string
	}{
		{"empty program", `{}`},
		{"unknown field", `{"program": "go.", "stepz": 5}`},
		{"wrong schema", `{"schema": "psi-serve-job/v99", "program": "go."}`},
		{"bad engine", `{"program": "go.", "engine": "warp"}`},
		{"bad fault", `{"program": "go.", "fault": "site=nowhere"}`},
		{"negative steps", `{"program": "go.", "steps": -1}`},
		{"negative timeout", `{"program": "go.", "timeout_ms": -1}`},
		{"not json", `program: go`},
	}
	for _, c := range cases {
		if _, err := parse(t, c.body, Defaults{}); err == nil {
			t.Errorf("%s: accepted, want rejection", c.name)
		}
	}
	// The explicit schema tag is accepted when it matches.
	if _, err := parse(t, `{"schema": "psi-serve-job/v1", "program": "go."}`, Defaults{}); err != nil {
		t.Errorf("matching schema rejected: %v", err)
	}
}

// TestSpecKey pins the cache-key contract: the key covers program text
// and query only, so budgets and labels share one compiled image while
// any source change gets its own.
func TestSpecKey(t *testing.T) {
	base := JobSpec{Program: "go :- true.\n", Query: "go", Workload: "a", Steps: 10}
	same := JobSpec{Program: "go :- true.\n", Query: "go", Workload: "b", TimeoutMS: 99}
	if base.Key() != same.Key() {
		t.Error("budgets/workload changed the cache key")
	}
	diffProg := JobSpec{Program: "go :- fail.\n", Query: "go"}
	diffQuery := JobSpec{Program: "go :- true.\n", Query: "other"}
	diffStdlib := JobSpec{Program: "go :- true.\n", Query: "go", Stdlib: true}
	for _, other := range []JobSpec{diffProg, diffQuery, diffStdlib} {
		if base.Key() == other.Key() {
			t.Errorf("distinct job %+v shares base key", other)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Addr != ":8131" || c.Workers <= 0 || c.Queue != 4*c.Workers {
		t.Errorf("zero-config defaults wrong: %+v", c)
	}
	if got := (Config{Queue: -1}).withDefaults().Queue; got != 0 {
		t.Errorf("Queue -1 (no waiting room) defaulted to %d, want 0", got)
	}
	if (Config{}).DrainTimeout() <= 0 {
		t.Error("default drain timeout not positive")
	}
}

func TestLoadConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "psid.json")
	good := `{"addr": ":0", "workers": 2, "defaults": {"timeout_ms": 100}}`
	if err := os.WriteFile(path, []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Addr != ":0" || c.Workers != 2 || c.Defaults.TimeoutMS != 100 {
		t.Errorf("config loaded wrong: %+v", c)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"adr": ":0"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(bad); err == nil {
		t.Error("unknown config field accepted")
	}
	if _, err := LoadConfig(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing config file accepted")
	}
}

// TestExampleConfigLoads keeps the checked-in example config in sync
// with the schema.
func TestExampleConfigLoads(t *testing.T) {
	c, err := LoadConfig("../../docs/psid.config.json")
	if err != nil {
		t.Fatalf("docs/psid.config.json does not load: %v", err)
	}
	if c.Workers <= 0 || c.Defaults.TimeoutMS <= 0 {
		t.Errorf("example config should set workers and a default timeout, got %+v", c)
	}
}
