package psi

// A `go test -run` pattern that names no test passes with "no tests to
// run", so a renamed or deleted test silently drops out of a Makefile
// target or a CI step. This test holds every -run alternative in the
// Makefile and the CI workflow to at least one Test, Fuzz or Example
// function of the repository.

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestRunPatternsNameTests(t *testing.T) {
	funcRE := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example)\w*)\(`)
	var names []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcRE.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("found no test functions")
	}

	runRE := regexp.MustCompile(`-run '([^']*)'`)
	for _, file := range []string{"Makefile", ".github/workflows/ci.yml"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		patterns := runRE.FindAllStringSubmatch(string(src), -1)
		if len(patterns) == 0 {
			t.Errorf("%s: no -run patterns found", file)
		}
		for _, m := range patterns {
			pat := strings.ReplaceAll(m[1], "$$", "$") // make's escape
			for _, alt := range strings.Split(pat, "|") {
				// go test matches the part before the first slash
				// against top-level names.
				top, _, _ := strings.Cut(alt, "/")
				re, err := regexp.Compile(top)
				if err != nil {
					t.Errorf("%s: -run alternative %q: %v", file, alt, err)
					continue
				}
				if re.MatchString("") {
					continue // '^$' deliberately runs no test
				}
				found := false
				for _, n := range names {
					if re.MatchString(n) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%s: -run alternative %q names no Test, Fuzz or Example function", file, alt)
				}
			}
		}
	}
}
