package harness

import (
	"encoding/json"
	"strings"

	"repro/internal/pmms"
	"repro/internal/progs"
)

// EvaluationSchema identifies the Evaluation JSON schema. Bump the
// suffix on any incompatible change.
const EvaluationSchema = "psi-evaluation/v1"

// Evaluation is the complete structured result of the paper's
// evaluation: every table, the Figure 1 sweep and the ablation study in
// one document. Text() renders the classic report (what `psibench all`
// prints); JSON() serializes the same data with a stable schema for
// downstream tooling. Both views come from one computation, so they can
// never disagree.
type Evaluation struct {
	Schema    string        `json:"schema"`
	Table1    []T1Row       `json:"table1"`
	Table2    []T2Row       `json:"table2"`
	Table3    []T3Row       `json:"table3"`
	Table4    []T4Row       `json:"table4"`
	Table5    []T5Row       `json:"table5"`
	Table6    *T6           `json:"table6"`
	Table7    []T7Col       `json:"table7"`
	Figure1   *Fig1         `json:"figure1"`
	Ablations []AblationRow `json:"ablations"`
	// CacheLab is the replacement-policy grid with classified misses
	// (additive to psi-evaluation/v1: absent documents predate the lab
	// or degraded under keep-going).
	CacheLab *CacheLab `json:"cache_lab,omitempty"`
	// Degraded lists the workloads a keep-going evaluation dropped
	// (empty and omitted on a fully successful run, so the schema stays
	// byte-compatible with psi-evaluation/v1 consumers).
	Degraded []DegradedRun `json:"degraded,omitempty"`
}

// Evaluate computes the full evaluation with default options.
func Evaluate() (*Evaluation, error) { return EvaluationWith(Options{}) }

// EvaluationWith computes the full evaluation. Every section declares
// its runs on one plan, which simulates each distinct run once, longest
// first, over the option's workers; the sections then render in the
// classic order from the finished runs. The result is identical for any
// worker count. With KeepGoing set, failing workloads are dropped from
// their sections and listed in the result's Degraded field instead of
// aborting the evaluation.
func EvaluationWith(o Options) (*Evaluation, error) {
	if o.KeepGoing && o.Degraded == nil {
		o.Degraded = NewDegradedLog()
	}
	p := newPlan(o)
	t1, t2, t3, t4, t5 := planTable1(p), planTable2(p), planTable3(p), planTable4(p), planTable5(p)
	t6, t7, f1 := planTable6(p), planTable7(p), planFigure1(p)
	abl, lab := planAblations(p), planCacheLab(p, pmms.DefaultGrid(), progs.Window1)
	p.execute()

	e := &Evaluation{Schema: EvaluationSchema}
	var err error
	if e.Table1, err = t1(); err != nil {
		return nil, err
	}
	if e.Table2, err = t2(); err != nil {
		return nil, err
	}
	if e.Table3, err = t3(); err != nil {
		return nil, err
	}
	if e.Table4, err = t4(); err != nil {
		return nil, err
	}
	if e.Table5, err = t5(); err != nil {
		return nil, err
	}
	if e.Table6, err = t6(); err != nil {
		return nil, err
	}
	if e.Table7, err = t7(); err != nil {
		return nil, err
	}
	if e.Figure1, err = f1(); err != nil {
		return nil, err
	}
	if e.Ablations, err = abl(); err != nil {
		return nil, err
	}
	if e.CacheLab, err = lab(); err != nil {
		return nil, err
	}
	if o.Degraded != nil {
		e.Degraded = o.Degraded.Runs()
	}
	return e, nil
}

// Text renders the evaluation exactly as `psibench all` prints it: each
// formatted section followed by a blank line.
func (e *Evaluation) Text() string {
	var b strings.Builder
	for _, s := range []string{
		FormatTable1(e.Table1),
		FormatTable2(e.Table2),
		FormatTable3(e.Table3),
		FormatTable4(e.Table4),
		FormatTable5(e.Table5),
		FormatTable6(e.Table6),
		FormatTable7(e.Table7),
		FormatFigure1(e.Figure1),
		FormatAblations(e.Ablations),
		FormatCacheLab(e.CacheLab),
	} {
		b.WriteString(s)
		b.WriteString("\n") // fmt.Println's newline after each section
	}
	if len(e.Degraded) > 0 {
		b.WriteString(FormatDegraded(e.Degraded))
		b.WriteString("\n")
	}
	return b.String()
}

// JSON serializes the evaluation (indented, trailing newline), the exact
// bytes `psibench -json` writes. Go's encoder sorts map keys and emits
// shortest-round-trip floats, so equal evaluations give equal bytes.
func (e *Evaluation) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
