package term

import (
	"sync"
	"sync/atomic"
)

// Symbols interns atom and functor names to dense 24-bit indices that fit
// in the symbol field of a PSI functor word. A single table is shared by
// the reader, the KL0 loader and the DEC-10 engine so that both engines
// agree on constants.
//
// The table is safe for concurrent use: machines sharing one compiled
// program image may intern new symbols at run time (number/atom
// conversion built-ins, findall copies), so the map is guarded. Indices
// are handed out in interning order; they carry no meaning beyond
// identity, so concurrent interleavings never change observable results.
//
// Name, which every compound arithmetic node calls, takes no lock: the
// append-only names slice is republished through pub under the writer
// lock after each append, and a reader indexes the slice it loads. An
// append never rewrites an element below the published length, so a
// loaded slice stays valid whatever the writers do next.
type Symbols struct {
	mu    sync.RWMutex
	names []string
	pub   atomic.Pointer[[]string]
	index map[string]uint32
}

// NewSymbols returns an empty table with the handful of symbols every
// program needs pre-interned at fixed indices.
func NewSymbols() *Symbols {
	s := &Symbols{index: make(map[string]uint32)}
	// Fixed well-known symbols; keep in sync with the Sym* constants.
	for _, n := range []string{"[]", ".", "true", "fail", ",", "-"} {
		s.Intern(n)
	}
	return s
}

// Well-known symbol indices guaranteed by NewSymbols.
const (
	SymEmptyList uint32 = iota
	SymDot
	SymTrue
	SymFail
	SymComma
	SymMinus
)

// Intern returns the index for name, adding it if new.
func (s *Symbols) Intern(name string) uint32 {
	s.mu.RLock()
	i, ok := s.index[name]
	s.mu.RUnlock()
	if ok {
		return i
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.index[name]; ok {
		return i
	}
	i = uint32(len(s.names))
	if i > 0xffffff {
		panic("term: symbol table overflow (more than 2^24 symbols)")
	}
	s.names = append(s.names, name)
	names := s.names
	s.pub.Store(&names)
	s.index[name] = i
	return i
}

// Lookup returns the index for name without interning.
func (s *Symbols) Lookup(name string) (uint32, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i, ok := s.index[name]
	return i, ok
}

// Name returns the string for an interned index.
func (s *Symbols) Name(i uint32) string {
	var names []string
	if p := s.pub.Load(); p != nil {
		names = *p
	}
	if int(i) >= len(names) {
		return "<sym?>"
	}
	return names[i]
}

// Len reports how many symbols are interned.
func (s *Symbols) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.names)
}
