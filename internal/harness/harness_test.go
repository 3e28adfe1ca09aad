package harness

import (
	"strings"
	"testing"

	"repro/internal/micro"
	"repro/internal/progs"
	"repro/internal/word"
)

// These tests assert the paper's qualitative claims against the measured
// outputs — the "shape" checks of the reproduction. They use the lighter
// workloads to stay fast.

func TestRunPSIAndDEC(t *testing.T) {
	r, err := RunPSI(progs.NReverse, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Machine.TimeNS() <= 0 {
		t.Error("no PSI time")
	}
	d, err := RunDEC(progs.NReverse)
	if err != nil {
		t.Fatal(err)
	}
	if d.TimeNS() <= 0 {
		t.Error("no DEC time")
	}
}

func TestTable1RatioShape(t *testing.T) {
	// DEC wins the compiler-friendly benchmark; PSI wins the
	// unification/backtracking-heavy application.
	check := func(b progs.Benchmark) float64 {
		r, err := RunPSI(b, false)
		if err != nil {
			t.Fatal(err)
		}
		d, err := RunDEC(b)
		if err != nil {
			t.Fatal(err)
		}
		return float64(d.TimeNS()) / float64(r.Machine.TimeNS())
	}
	if ratio := check(progs.NReverse); ratio >= 1 {
		t.Errorf("DEC should win nreverse (ratio %.2f)", ratio)
	}
	if ratio := check(progs.LCP1); ratio >= 1 {
		t.Errorf("DEC should win LCP (ratio %.2f)", ratio)
	}
	if ratio := check(progs.BUP2); ratio <= 1 {
		t.Errorf("PSI should win BUP (ratio %.2f)", ratio)
	}
	if ratio := check(progs.Harmonizer1); ratio <= 1 {
		t.Errorf("PSI should win HARMONIZER (ratio %.2f)", ratio)
	}
}

func TestPaperProseClaims(t *testing.T) {
	r, err := RunPSI(progs.BUP2, false)
	if err != nil {
		t.Fatal(err)
	}
	s, m := r.Machine.Stats(), r.Machine
	// "about one in every five microinstruction steps is a request for
	// memory access" (16-23% in the paper; we accept a wider band).
	memRate := float64(s.MemoryAccesses()) / float64(s.Steps)
	if memRate < 0.10 || memRate > 0.45 {
		t.Errorf("memory access rate = %.2f, expected roughly one in five", memRate)
	}
	// "the ratio between Read and Write commands is approximately 3 and 1"
	reads := s.CacheOps[micro.OpRead]
	writes := s.CacheOps[micro.OpWrite] + s.CacheOps[micro.OpWriteStack]
	if ratio := float64(reads) / float64(writes); ratio < 1.5 || ratio > 7 {
		t.Errorf("read:write = %.1f, expected around 3", ratio)
	}
	// "the Write Stack command accounts for 50 to 75% of the total Write
	// commands"
	ws := float64(s.CacheOps[micro.OpWriteStack]) / float64(writes)
	if ws < 0.4 || ws > 0.95 {
		t.Errorf("write-stack share = %.2f", ws)
	}
	// "accesses to the heap area account for 30 to 55% of the total"
	if h := s.AreaAccessRatio(word.AreaHeap); h < 0.25 || h > 0.65 {
		t.Errorf("heap share = %.2f", h)
	}
	// Cache hit ratio for applications is high (paper: > 96%).
	if hr := m.Cache().HitRatio(); hr < 0.95 {
		t.Errorf("application hit ratio = %.3f", hr)
	}
}

func TestBranchClaims(t *testing.T) {
	r, err := RunPSI(progs.BUP2, false)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Machine.Stats()
	// "around 80% of all the microinstruction steps contain branch
	// operations"
	var nonNop float64
	for op := micro.BranchOp(0); op < micro.NumBranchOps; op++ {
		if !op.IsNop() {
			nonNop += s.BranchRatio(op)
		}
	}
	if nonNop < 0.6 || nonNop > 0.95 {
		t.Errorf("branch-op share = %.2f, expected around 0.8", nonNop)
	}
	// Conditional branches dominate (paper: 35-39% for (2)-(4)).
	cond := s.BranchRatio(micro.BCond) + s.BranchRatio(micro.BCondNot) + s.BranchRatio(micro.BIfTag)
	if cond < 0.2 || cond > 0.55 {
		t.Errorf("conditional branch share = %.2f", cond)
	}
	// Multi-way tag dispatches are frequent (paper: 13-14% for (5)-(6)).
	multi := s.BranchRatio(micro.BCaseTag) + s.BranchRatio(micro.BCaseIRN)
	if multi < 0.06 || multi > 0.30 {
		t.Errorf("multi-way dispatch share = %.2f", multi)
	}
}

func TestTable2ModuleShape(t *testing.T) {
	// BUP and HARMONIZER are unification-heavy; WINDOW is built-in-heavy
	// with almost no cut-free search.
	rBUP, err := RunPSI(progs.BUP2, false)
	if err != nil {
		t.Fatal(err)
	}
	sBUP := rBUP.Machine.Stats()
	if sBUP.ModuleRatio(micro.MUnify) < 0.25 {
		t.Errorf("BUP unify share = %.2f", sBUP.ModuleRatio(micro.MUnify))
	}
	rWin, err := RunPSI(progs.Window1, false)
	if err != nil {
		t.Fatal(err)
	}
	sWin := rWin.Machine.Stats()
	builtish := sWin.ModuleRatio(micro.MBuilt) + sWin.ModuleRatio(micro.MGetArg)
	if builtish < 0.25 {
		t.Errorf("WINDOW built+get_arg share = %.2f", builtish)
	}
}

func TestTable6Claims(t *testing.T) {
	t6, err := Table6With(Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := t6.Usage
	// ">= 90% of all accesses to the WF use direct addressing"
	direct := u.RateOfAccesses(0, micro.ModeWF00) + u.RateOfAccesses(0, micro.ModeWF10) +
		u.RateOfAccesses(0, micro.ModeConst)
	if direct < 0.85 {
		t.Errorf("direct addressing share = %.2f", direct)
	}
	// Source 2 reaches only the dual-port words.
	for mode := micro.ModeWF10; mode < micro.NumWFModes; mode++ {
		if u.Counts[1][mode] != 0 {
			t.Errorf("source 2 used mode %v", mode)
		}
	}
	// The trail-buffer functions are nearly unused (the paper's
	// conclusion that they should be reconsidered).
	if r := u.RateOfSteps(0, micro.ModeWFAR2); r > 0.02 {
		t.Errorf("WFAR2 share = %.4f", r)
	}
}

func TestFigure1Saturation(t *testing.T) {
	f, err := Figure1With(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Points) < 8 {
		t.Fatalf("sweep points = %d", len(f.Points))
	}
	// "the improvement ratio saturates near the capacity of 512 words":
	// the gain from 512 words to 8K words is small compared to the gain
	// from 8 to 512 words.
	var at8, at512, at8192 float64
	for _, p := range f.Points {
		switch p.Words {
		case 8:
			at8 = p.Improvement
		case 512:
			at512 = p.Improvement
		case 8192:
			at8192 = p.Improvement
		}
	}
	if at512-at8 < 4*(at8192-at512) {
		t.Errorf("no saturation: 8w=%.1f 512w=%.1f 8K=%.1f", at8, at512, at8192)
	}
	// Store-in beats store-through.
	if f.TwoSet8K <= f.StoreThrough {
		t.Errorf("store-in %.1f should beat store-through %.1f", f.TwoSet8K, f.StoreThrough)
	}
	// The one-set (half capacity, direct-mapped) penalty is small.
	if pen := f.TwoSet8K - f.OneSet8K; pen < 0 || pen > 15 {
		t.Errorf("one-set penalty = %.1f", pen)
	}
}

func TestFormatters(t *testing.T) {
	rows2, err := Table2With(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out := FormatTable2(rows2); !strings.Contains(out, "unify") {
		t.Error("table 2 format")
	}
	rows3, err := Table3With(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out := FormatTable3(rows3); !strings.Contains(out, "write-stack") {
		t.Error("table 3 format")
	}
	rows4, err := Table4With(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out := FormatTable4(rows4); !strings.Contains(out, "heap") {
		t.Error("table 4 format")
	}
	rows5, err := Table5With(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out := FormatTable5(rows5); !strings.Contains(out, "total") {
		t.Error("table 5 format")
	}
	t7, err := Table7With(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out := FormatTable7(t7); !strings.Contains(out, "case (irn)") {
		t.Error("table 7 format")
	}
	t6, err := Table6With(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out := FormatTable6(t6); !strings.Contains(out, "@WFAR1") {
		t.Error("table 6 format")
	}
	f, err := Figure1With(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out := FormatFigure1(f); !strings.Contains(out, "8192") {
		t.Error("figure 1 format")
	}
	one := []T1Row{{Name: "x", PSIMS: 1, DECMS: 2, Ratio: 2}}
	if out := FormatTable1(one); !strings.Contains(out, "DEC/PSI") {
		t.Error("table 1 format")
	}
}

func TestTraceFor(t *testing.T) {
	log, err := TraceFor(progs.NReverse)
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() == 0 {
		t.Fatal("empty trace")
	}
}
