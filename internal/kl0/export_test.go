package kl0

// FactBase is factBase, for the external test package.
var FactBase = factBase

// CodeRanges exposes the code-range table ProcAt searches, for the
// code-image pin in the external test package: each entry is
// {start, end, proc}.
func (p *Program) CodeRanges() [][3]int {
	out := make([][3]int, len(p.ranges))
	for i, r := range p.ranges {
		out[i] = [3]int{r.start, r.end, r.proc}
	}
	return out
}
