package psi

// End-to-end golden of the offline tool chain: collect traces a small
// program, then pmms (in each of its report modes) and psimap read the
// trace. Their stdout is pinned under testdata/toolchain/; -update
// rewrites the goldens from the current binaries.

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var updateToolchain = flag.Bool("update", false, "rewrite the tool-chain goldens under testdata/toolchain/")

func TestToolchainCLIGolden(t *testing.T) {
	bins := buildCmds(t, "collect", "pmms", "psimap")
	collect, pmmsBin, psimap := bins[0], bins[1], bins[2]

	list := runStdout(t, collect, "-list")
	names := strings.Split(strings.TrimSpace(list), "\n")
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("collect -list prints %q twice", n)
		}
		seen[n] = true
	}
	if !seen["window-1"] || !seen["nreverse (30)"] {
		t.Errorf("collect -list misses built-in workloads:\n%s", list)
	}

	trc := filepath.Join(t.TempDir(), "prog.trc")
	runStdout(t, collect, "-p", filepath.Join("testdata", "toolchain", "prog.pl"), trc)

	cases := []struct {
		golden string
		bin    string
		args   []string
	}{
		{"pmms-sweep", pmmsBin, nil},
		{"pmms-ablate", pmmsBin, []string{"-ablate"}},
		{"pmms-grid-why", pmmsBin, []string{"-grid", "default", "-why"}},
		{"pmms-single-why", pmmsBin, []string{"-words", "4096", "-sets", "1", "-policy", "plru", "-victims", "4", "-why"}},
		{"pmms-sweep-why", pmmsBin, []string{"-why"}},
		{"psimap", psimap, nil},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			got := runStdout(t, tc.bin, append(tc.args, trc)...)
			path := filepath.Join("testdata", "toolchain", tc.golden+".txt")
			if *updateToolchain {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s output differs from %s:\n%s", filepath.Base(tc.bin), path, got)
			}
		})
	}
}

// runStdout executes a built binary, fails the test on a non-zero exit
// and returns its stdout.
func runStdout(t *testing.T, bin string, args ...string) string {
	t.Helper()
	var stdout, stderr strings.Builder
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, stderr.String())
	}
	return stdout.String()
}
