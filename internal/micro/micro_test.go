package micro

import (
	"testing"

	"repro/internal/word"
)

func TestBranchOpTypes(t *testing.T) {
	if BNop1.Type() != 1 || BGotoJR.Type() != 1 {
		t.Error("type 1 grouping")
	}
	if BNop2.Type() != 2 || BGoto2.Type() != 2 {
		t.Error("type 2 grouping")
	}
	if BNop3.Type() != 3 || BGotoJR3.Type() != 3 {
		t.Error("type 3 grouping")
	}
	if !BNop1.IsNop() || !BNop2.IsNop() || !BNop3.IsNop() {
		t.Error("nop detection")
	}
	if BCaseTag.IsNop() || BGoto2.IsNop() {
		t.Error("non-nop misdetected")
	}
}

func TestStatsAggregation(t *testing.T) {
	var s Stats
	s.Cycle(Cycle{Module: MUnify, Src1: ModeWF10, Src2: ModeWF00, Branch: BCaseTag, Data: true})
	s.Cycle(Cycle{Module: MControl, Cache: OpRead, Addr: word.MakeAddr(word.AreaHeap, 5), Branch: BNop1})
	s.Cycle(Cycle{Module: MControl, Cache: OpWriteStack, Addr: word.MakeAddr(word.StackArea(0, word.AreaLocal), 9), Branch: BGoto2})

	if s.Steps != 3 {
		t.Fatalf("steps = %d", s.Steps)
	}
	if s.ModuleSteps[MControl] != 2 || s.ModuleSteps[MUnify] != 1 {
		t.Error("module attribution")
	}
	if s.Branch[BCaseTag] != 1 || s.Branch[BNop1] != 1 || s.Branch[BGoto2] != 1 {
		t.Error("branch counts")
	}
	if s.BranchData != 1 {
		t.Errorf("branch+data = %d", s.BranchData)
	}
	if s.Src1[ModeWF10] != 1 || s.Src2[ModeWF00] != 1 || s.Src1[ModeNone] != 2 {
		t.Error("wf field counts")
	}
	if s.MemoryAccesses() != 2 {
		t.Errorf("memory accesses = %d", s.MemoryAccesses())
	}
	if s.AreaOps[word.AreaHeap][OpRead] != 1 {
		t.Error("area op counts: heap read")
	}
	if s.AreaOps[word.AreaLocal][OpWriteStack] != 1 {
		t.Error("area op counts: local write-stack")
	}
}

func TestRatios(t *testing.T) {
	var s Stats
	for i := 0; i < 3; i++ {
		s.Cycle(Cycle{Module: MBuilt, Cache: OpRead, Addr: word.MakeAddr(word.AreaHeap, 0)})
	}
	s.Cycle(Cycle{Module: MCut})
	if got := s.ModuleRatio(MBuilt); got != 0.75 {
		t.Errorf("module ratio = %v", got)
	}
	if got := s.CacheOpRatio(OpRead); got != 0.75 {
		t.Errorf("cache ratio = %v", got)
	}
	if got := s.AreaAccessRatio(word.AreaHeap); got != 1 {
		t.Errorf("area ratio = %v", got)
	}
	if got := s.BranchRatio(BNop1); got != 1 {
		t.Errorf("branch ratio = %v", got)
	}
	s.Reset()
	if s.Steps != 0 || s.ModuleRatio(MBuilt) != 0 || s.CacheOpRatio(OpRead) != 0 ||
		s.AreaAccessRatio(word.AreaHeap) != 0 || s.BranchRatio(BNop1) != 0 {
		t.Error("reset")
	}
}

func TestStrings(t *testing.T) {
	if MUnify.String() != "unify" || MGetArg.String() != "get_arg" {
		t.Error("module names")
	}
	if ModeWFAR1.String() != "@WFAR1" || ModeConst.String() != "Constant" {
		t.Error("wf mode names")
	}
	if OpWriteStack.String() != "write-stack" {
		t.Error("cache op names")
	}
	if BCaseIRN.String() != "case (irn)" {
		t.Error("branch names")
	}
}
