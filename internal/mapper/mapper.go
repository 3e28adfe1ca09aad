// Package mapper implements the MAP microinstruction pattern analyzer:
// given a COLLECT trace, or the cycle stream a trace would hold, it
// counts how often specific patterns appear in specific microinstruction
// fields, producing the raw data behind the work-file (Table 6) and
// branch-function (Table 7) evaluations.
package mapper

import (
	"repro/internal/micro"
	"repro/internal/trace"
)

// Field selects a microinstruction field to analyze.
type Field uint8

// Analyzable fields.
const (
	FieldModule Field = iota
	FieldSrc1
	FieldSrc2
	FieldDest
	FieldCache
	FieldBranch
)

// Count returns how many trace records carry value v in field f.
func Count(l *trace.Log, f Field, v uint8) int64 {
	var n int64
	for _, r := range l.Recs {
		if fieldOf(r, f) == v {
			n++
		}
	}
	return n
}

func fieldOf(r trace.Rec, f Field) uint8 {
	switch f {
	case FieldModule:
		return r.Module
	case FieldSrc1:
		return r.Src1
	case FieldSrc2:
		return r.Src2
	case FieldDest:
		return r.Dest
	case FieldCache:
		return r.Cache
	case FieldBranch:
		return r.Branch
	}
	return 0
}

// Stats re-aggregates a trace into the standard dynamic statistics (the
// same counters the machine accumulates online).
func Stats(l *trace.Log) *micro.Stats {
	var s micro.Stats
	for _, r := range l.Recs {
		s.Cycle(r.Cycle())
	}
	return &s
}

// WFUsage is the Table 6 measurement: for each of the three
// work-file-addressing fields, the distribution over access modes.
type WFUsage struct {
	Steps int64 `json:"steps"`
	// Counts[field][mode], field 0=src1 1=src2 2=dest; modes ordered as
	// micro.WFMode (index 0 is ModeNone).
	Counts [3][micro.NumWFModes]int64 `json:"counts"`
}

// Cycle implements micro.Sink: MAP as a streaming fold. Attached to a
// running machine, a WFUsage counts the work-file fields of every cycle
// with no trace in memory; Analyze is the same fold over a stored trace.
func (u *WFUsage) Cycle(c micro.Cycle) {
	u.Steps++
	u.Counts[0][bounded(c.Src1)]++
	u.Counts[1][bounded(c.Src2)]++
	u.Counts[2][bounded(c.Dest)]++
}

// Analyze computes the work-file usage of a trace.
func Analyze(l *trace.Log) WFUsage {
	var u WFUsage
	for _, r := range l.Recs {
		u.Cycle(r.Cycle())
	}
	return u
}

// bounded maps a mode outside the WF mode set (a damaged record) to
// ModeNone.
func bounded(m micro.WFMode) int {
	if m >= micro.NumWFModes {
		return 0
	}
	return int(m)
}

// Accesses reports the total WF accesses for a field (non-None modes).
func (u WFUsage) Accesses(field int) int64 {
	var n int64
	for mode := 1; mode < int(micro.NumWFModes); mode++ {
		n += u.Counts[field][mode]
	}
	return n
}

// RateOfAccesses reports mode's share of the field's WF accesses (the
// first percentage of each Table 6 cell).
func (u WFUsage) RateOfAccesses(field int, mode micro.WFMode) float64 {
	total := u.Accesses(field)
	if total == 0 {
		return 0
	}
	return float64(u.Counts[field][mode]) / float64(total)
}

// RateOfSteps reports mode's share of all execution steps (the second
// percentage of each Table 6 cell).
func (u WFUsage) RateOfSteps(field int, mode micro.WFMode) float64 {
	if u.Steps == 0 {
		return 0
	}
	return float64(u.Counts[field][mode]) / float64(u.Steps)
}
