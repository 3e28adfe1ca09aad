package psi

// EXPERIMENTS.md quotes measured numbers from the evaluation; this test
// holds the quoted Table 1 ratios, Table 2 rows, Figure 1 curve and
// store-in/store-through figures to the golden
// docs/evaluation-output.json, at the precision the document prints.

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// goldenEvaluation is the slice of the evaluation JSON EXPERIMENTS.md
// quotes.
type goldenEvaluation struct {
	Table1 []struct {
		Name  string  `json:"name"`
		Ratio float64 `json:"ratio"`
	} `json:"table1"`
	Table2 []struct {
		Name    string    `json:"name"`
		Modules []float64 `json:"modules"`
	} `json:"table2"`
	Figure1 struct {
		Points []struct {
			Words       int     `json:"words"`
			Improvement float64 `json:"improvement"`
		} `json:"points"`
		TwoSet8K     float64 `json:"two_set_8k"`
		StoreThrough float64 `json:"store_through"`
	} `json:"figure1"`
}

// mdSection returns the text of EXPERIMENTS.md from the heading that
// starts with prefix up to the next "## " heading.
func mdSection(t *testing.T, doc, prefix string) string {
	t.Helper()
	i := strings.Index(doc, "\n"+prefix)
	if i < 0 {
		t.Fatalf("EXPERIMENTS.md has no section %q", prefix)
	}
	sec := doc[i+1:]
	if j := strings.Index(sec[1:], "\n## "); j >= 0 {
		sec = sec[:j+1]
	}
	return sec
}

// mdRows returns the cells of every table row in sec whose first cell
// satisfies keep.
func mdRows(sec string, keep func(first string) bool) [][]string {
	var rows [][]string
	for _, line := range strings.Split(sec, "\n") {
		if !strings.HasPrefix(line, "| ") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if keep(cells[0]) {
			rows = append(rows, cells)
		}
	}
	return rows
}

func TestExperimentsMatchGolden(t *testing.T) {
	raw, err := os.ReadFile("docs/evaluation-output.json")
	if err != nil {
		t.Fatal(err)
	}
	var g goldenEvaluation
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)

	// Table 1: the measured DEC/PSI column, row by row in golden order.
	rows := mdRows(mdSection(t, doc, "## Table 1"), func(first string) bool {
		return first != "program" && !strings.HasPrefix(first, "---")
	})
	if len(rows) != len(g.Table1) {
		t.Fatalf("Table 1 has %d rows, the golden %d", len(rows), len(g.Table1))
	}
	for i, r := range g.Table1 {
		if rows[i][0] != r.Name || rows[i][1] != fmt.Sprintf("%.2f", r.Ratio) {
			t.Errorf("Table 1 row %q: measured %s, golden %s %.2f", rows[i][0], rows[i][1], r.Name, r.Ratio)
		}
	}

	// Table 2: every "(meas.)" row.
	rows = mdRows(mdSection(t, doc, "## Table 2"), func(first string) bool {
		return strings.HasSuffix(first, " (meas.)")
	})
	if len(rows) != len(g.Table2) {
		t.Fatalf("Table 2 has %d measured rows, the golden %d", len(rows), len(g.Table2))
	}
	for i, r := range g.Table2 {
		want := []string{r.Name + " (meas.)"}
		for _, v := range r.Modules {
			want = append(want, fmt.Sprintf("%.1f", v))
		}
		if strings.Join(rows[i], " | ") != strings.Join(want, " | ") {
			t.Errorf("Table 2 row:\n  doc    %s\n  golden %s", strings.Join(rows[i], " | "), strings.Join(want, " | "))
		}
	}

	// Figure 1: the fenced curve and the store-in vs store-through line.
	fig := mdSection(t, doc, "## Figure 1")
	start := strings.Index(fig, "```\n")
	end := strings.Index(fig[start+4:], "```")
	if start < 0 || end < 0 {
		t.Fatal("Figure 1 section has no fenced curve")
	}
	var curve []string
	for _, f := range strings.Fields(fig[start+4 : start+4+end]) {
		if f != "·" {
			curve = append(curve, f)
		}
	}
	var want []string
	for _, p := range g.Figure1.Points {
		label := fmt.Sprintf("%dw", p.Words)
		if p.Words >= 1024 {
			label = fmt.Sprintf("%dK", p.Words/1024)
		}
		want = append(want, label, fmt.Sprintf("%.1f%%", p.Improvement))
	}
	if strings.Join(curve, " ") != strings.Join(want, " ") {
		t.Errorf("Figure 1 curve:\n  doc    %s\n  golden %s", strings.Join(curve, " "), strings.Join(want, " "))
	}
	m := regexp.MustCompile(`\*\*Store-in vs\. store-through\*\*: ([0-9.]+)% vs\. ([0-9.]+)%`).FindStringSubmatch(fig)
	if m == nil {
		t.Fatal("Figure 1 section has no store-in vs store-through line")
	}
	if si, st := fmt.Sprintf("%.1f", g.Figure1.TwoSet8K), fmt.Sprintf("%.1f", g.Figure1.StoreThrough); m[1] != si || m[2] != st {
		t.Errorf("store-in vs store-through: doc %s%% vs %s%%, golden %s%% vs %s%%", m[1], m[2], si, st)
	}
}
