package mapper

import (
	"math"
	"testing"

	"repro/internal/micro"
	"repro/internal/trace"
)

func mkLog() *trace.Log {
	var l trace.Log
	// 2 cycles with src1=WF10, 1 with src1=const, 1 without; varied
	// branches and modules.
	l.Cycle(micro.Cycle{Module: micro.MUnify, Src1: micro.ModeWF10, Src2: micro.ModeWF00, Branch: micro.BCaseTag})
	l.Cycle(micro.Cycle{Module: micro.MUnify, Src1: micro.ModeWF10, Dest: micro.ModeWF10, Branch: micro.BCond})
	l.Cycle(micro.Cycle{Module: micro.MControl, Src1: micro.ModeConst, Branch: micro.BGoto2})
	l.Cycle(micro.Cycle{Module: micro.MBuilt, Branch: micro.BNop1})
	return &l
}

func TestStatsMatchesOnline(t *testing.T) {
	l := mkLog()
	s := Stats(l)
	if s.Steps != 4 {
		t.Fatalf("steps = %d", s.Steps)
	}
	if s.ModuleSteps[micro.MUnify] != 2 {
		t.Errorf("unify steps = %d", s.ModuleSteps[micro.MUnify])
	}
	if s.Branch[micro.BGoto2] != 1 {
		t.Errorf("goto2 = %d", s.Branch[micro.BGoto2])
	}
}

func TestAnalyze(t *testing.T) {
	l := mkLog()
	u := Analyze(l)
	if u.Steps != 4 {
		t.Fatalf("steps = %d", u.Steps)
	}
	if got := u.Accesses(0); got != 3 {
		t.Errorf("src1 accesses = %d", got)
	}
	if got := u.RateOfAccesses(0, micro.ModeWF10); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("WF10 rate of accesses = %v", got)
	}
	if got := u.RateOfSteps(0, micro.ModeWF10); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("WF10 rate of steps = %v", got)
	}
	if got := u.Accesses(1); got != 1 {
		t.Errorf("src2 accesses = %d", got)
	}
	if got := u.RateOfSteps(2, micro.ModeWF10); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("dest rate = %v", got)
	}
}

func TestEmptyUsage(t *testing.T) {
	var l trace.Log
	u := Analyze(&l)
	if u.RateOfAccesses(0, micro.ModeWF10) != 0 || u.RateOfSteps(0, micro.ModeWF10) != 0 {
		t.Error("empty trace rates should be zero")
	}
}
