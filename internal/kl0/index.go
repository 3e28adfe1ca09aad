package kl0

import "repro/internal/word"

// ClauseIndex is the PSI-II first-argument clause-selection table the
// paper's conclusion announces ("improving the instruction code suitable
// for the compile time optimization"). For a call whose first argument
// is bound, the interpreter consults the index instead of trying every
// clause — removing the choice points that Table 1 blames for the PSI's
// losses on compiler-friendly programs.
//
// Clauses whose first head argument is a variable match any key, so they
// appear in every bucket and form the default for keys absent from the
// tables, exactly as in compiled-code indexing.
type ClauseIndex struct {
	// Const maps an atomic first argument (tag and data) to the clause
	// numbers to try, in source order.
	Const map[uint64][]int
	// Struct maps a compound first argument's functor word data
	// (symbol<<8|arity) to the clause numbers to try.
	Struct map[uint32][]int
	// VarOnly lists the clauses with variable first arguments: the
	// default bucket for unmatched keys.
	VarOnly []int
	// built records the clause count the index was computed for, so a
	// later AddClauses invalidates it.
	built int
}

func constKey(w word.Word) uint64 {
	return uint64(w.Tag())<<32 | uint64(w.Data())
}

// Index returns the first-argument index for a procedure, building it
// on first use: compilation builds no index, so only runs with
// Features.Indexing pay for one, and only for the procedures they call.
// Once built, the common path is a single atomic load; a procedure whose
// clause list grew since (assertz) is rebuilt here. Machines sharing one
// program may race to a build: the construction runs under the program
// lock and is published atomically, so every caller sees a fully built
// index and the build happens once.
func (p *Program) Index(procIdx int) *ClauseIndex {
	proc := p.Procs[procIdx]
	if ix := proc.index.Load(); ix != nil && ix.built == len(proc.Clauses) {
		return ix
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// Recheck under the lock: a concurrent caller may have built it.
	if ix := proc.index.Load(); ix != nil && ix.built == len(proc.Clauses) {
		return ix
	}
	ix := &ClauseIndex{
		Const:  make(map[uint64][]int),
		Struct: make(map[uint32][]int),
		built:  len(proc.Clauses),
	}
	type key struct {
		kind int // 0 var, 1 const, 2 struct
		c    uint64
		f    uint32
	}
	keys := make([]key, len(proc.Clauses))
	for i, ci := range proc.Clauses {
		info := p.Code[ci.Start]
		if info.InfoArity() == 0 {
			keys[i] = key{kind: 0}
			continue
		}
		arg := p.Code[ci.Start+1]
		switch arg.Tag() {
		case word.TagAtom, word.TagInt, word.TagNil:
			keys[i] = key{kind: 1, c: constKey(arg)}
		case word.TagSkel:
			f := p.Code[arg.Addr()]
			keys[i] = key{kind: 2, f: f.Data()}
		default: // variables and voids
			keys[i] = key{kind: 0}
		}
	}
	// Collect the distinct keys first, then fill buckets in clause order
	// (variable-keyed clauses join every bucket).
	for _, k := range keys {
		switch k.kind {
		case 1:
			if _, ok := ix.Const[k.c]; !ok {
				ix.Const[k.c] = nil
			}
		case 2:
			if _, ok := ix.Struct[k.f]; !ok {
				ix.Struct[k.f] = nil
			}
		}
	}
	for i, k := range keys {
		switch k.kind {
		case 0:
			ix.VarOnly = append(ix.VarOnly, i)
			for c := range ix.Const {
				ix.Const[c] = append(ix.Const[c], i)
			}
			for f := range ix.Struct {
				ix.Struct[f] = append(ix.Struct[f], i)
			}
		case 1:
			ix.Const[k.c] = append(ix.Const[k.c], i)
		case 2:
			ix.Struct[k.f] = append(ix.Struct[k.f], i)
		}
	}
	proc.index.Store(ix)
	return ix
}

// SelectConst returns the clauses to try for an atomic first argument.
func (ix *ClauseIndex) SelectConst(w word.Word) []int {
	if cs, ok := ix.Const[constKey(w)]; ok {
		return cs
	}
	return ix.VarOnly
}

// SelectStruct returns the clauses to try for a compound first argument
// with the given functor word data.
func (ix *ClauseIndex) SelectStruct(f uint32) []int {
	if cs, ok := ix.Struct[f]; ok {
		return cs
	}
	return ix.VarOnly
}
