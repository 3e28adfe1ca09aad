// Package mem models the PSI main memory: a set of independent logical
// address spaces (the heap plus four stacks per process) backed by
// physical memory through a hardware address translation table. The
// translation matters for cache behaviour — distinct areas and processes
// land on distinct physical pages, so cache conflicts arise exactly where
// they would on the machine.
package mem

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/word"
)

// PageWords is the translation granularity in words.
const PageWords = 1024

// pageShift is log2(PageWords), for the translation address math.
const pageShift = 10

// Memory is the logical memory of one PSI machine instance.
type Memory struct {
	areas    []area
	nextPhys uint32
	inj      *fault.Injector // nil outside chaos runs
}

// area is one logical address space: its backing storage, its part of
// the hardware address translation table and its high-water mark.
type area struct {
	words []word.Word
	// pages holds the physical page number + 1 of each logical page (0 =
	// not yet mapped). A dense slice replaces the obvious hash map —
	// translation runs once per simulated memory access, making it one
	// of the hottest loads in the whole simulator.
	pages []uint32
	// hi is the high-water mark of words written this run (offset of the
	// highest write + 1). Unlike the backing storage — which Reset keeps
	// allocated for reuse — this is per-run state, so a pooled machine
	// reports the same memory footprint a fresh one would.
	hi uint32
}

// SetInjector attaches (or with nil detaches) the fault injector whose
// MemAccess hook models the memory parity checker. The machine wires
// this on New/Reset, so a pooled memory never retains a previous run's
// injector.
func (m *Memory) SetInjector(inj *fault.Injector) { m.inj = inj }

// New allocates a memory with room for the given number of processes
// (heap plus four stack areas each).
func New(processes int) *Memory {
	return &Memory{areas: make([]area, word.NumAreas(processes))}
}

// Cell is the short path of one memory command: in one lookup it
// translates a, returns the word's storage and, for a write, raises the
// area's high-water mark. ok is false — and nothing has changed — when
// the page is not mapped yet, the offset is past the backing array or
// the injector is armed; the caller then takes Translate and CellSlow.
func (m *Memory) Cell(a word.Addr, write bool) (phys uint32, cell *word.Word, ok bool) {
	ar := &m.areas[a.Area()]
	off := a.Offset()
	pg := off >> pageShift
	if int(off) >= len(ar.words) || int(pg) >= len(ar.pages) || m.inj != nil {
		return 0, nil, false
	}
	p := ar.pages[pg]
	if p == 0 {
		return 0, nil, false
	}
	if write && off >= ar.hi {
		ar.hi = off + 1
	}
	return (p-1)*PageWords + off&(PageWords-1), &ar.words[off], true
}

// CellSlow is Cell's storage half for the cases its short path leaves
// out: it grows the backing array, raises the high-water mark of a
// write and fires the parity hook, in the order Read and Write do.
//
//go:noinline
func (m *Memory) CellSlow(a word.Addr, write bool) *word.Word {
	ar := m.area(a.Area())
	off := a.Offset()
	if int(off) >= len(ar.words) {
		ar.grow(off)
	}
	if write && off >= ar.hi {
		ar.hi = off + 1
	}
	if m.inj != nil {
		m.inj.MemAccess(a)
	}
	return &ar.words[off]
}

// Read returns the word at a logical address. Like Cell, the short
// path covers an offset inside the backing array with no injector
// armed; CellSlow does the rest.
func (m *Memory) Read(a word.Addr) word.Word {
	ar, off := &m.areas[a.Area()], a.Offset()
	if int(off) < len(ar.words) && m.inj == nil {
		return ar.words[off]
	}
	return *m.CellSlow(a, false)
}

// Write stores a word at a logical address, with the same short path as
// Read.
func (m *Memory) Write(a word.Addr, w word.Word) {
	ar, off := &m.areas[a.Area()], a.Offset()
	if int(off) < len(ar.words) && m.inj == nil {
		if off >= ar.hi {
			ar.hi = off + 1
		}
		ar.words[off] = w
		return
	}
	*m.CellSlow(a, true) = w
}

// area returns the address space of id. Invariant panic: area ids come
// from the machine's own context setup, never from user input, so an id
// out of range is a simulator bug; the session boundary contains it as
// engine.ErrFault.
func (m *Memory) area(id word.AreaID) *area {
	if int(id) >= len(m.areas) {
		panic(fmt.Sprintf("mem: area %d out of range", id))
	}
	return &m.areas[id]
}

// grow extends the backing storage to cover offset, doubling from one
// page.
func (ar *area) grow(offset uint32) {
	n := len(ar.words)
	if n == 0 {
		n = PageWords
	}
	for n <= int(offset) {
		n *= 2
	}
	grown := make([]word.Word, n)
	copy(grown, ar.words)
	ar.words = grown
}

// Translate maps a logical address to a physical word address through the
// address translation table. The short path is an already-mapped page;
// first touch (which allocates the next physical page) and table growth
// are in translateSlow.
func (m *Memory) Translate(a word.Addr) uint32 {
	off := a.Offset()
	if t := m.areas[a.Area()].pages; int(off>>pageShift) < len(t) {
		if phys := t[off>>pageShift]; phys != 0 {
			return (phys-1)*PageWords + off&(PageWords-1)
		}
	}
	return m.translateSlow(a)
}

// translateSlow is Translate for a page not mapped yet: it grows the
// area's table if needed and assigns the next physical page.
//
//go:noinline
func (m *Memory) translateSlow(a word.Addr) uint32 {
	ar := m.area(a.Area())
	off := a.Offset()
	pg := off >> pageShift
	if int(pg) >= len(ar.pages) {
		n := len(ar.pages)
		if n == 0 {
			n = 8
		}
		for n <= int(pg) {
			n *= 2
		}
		grown := make([]uint32, n)
		copy(grown, ar.pages)
		ar.pages = grown
	}
	phys := ar.pages[pg]
	if phys == 0 {
		m.nextPhys++
		phys = m.nextPhys
		ar.pages[pg] = phys
	}
	return (phys-1)*PageWords + off&(PageWords-1)
}

// Reset returns the memory to its post-New state while keeping the area
// storage allocated for reuse. Only each area's written prefix [:hi] is
// cleared: every store raises hi first, so the words above it are still
// zero, and a pooled memory that once held a large program does not
// re-zero that storage on every reuse. The translation table is cleared
// too, so a reset memory allocates physical pages in exactly the
// first-touch order of a fresh run — cache behaviour after a Reset is
// bit-identical to a fresh machine's.
func (m *Memory) Reset() {
	for i := range m.areas {
		ar := &m.areas[i]
		clear(ar.words[:ar.hi])
		clear(ar.pages)
		ar.hi = 0
	}
	m.nextPhys = 0
}

// AreaSize reports the high-water mark of an area in words: the extent
// of the words written since New or the last Reset. It deliberately
// ignores the (retained, possibly larger) backing storage so a pooled,
// reset memory reports exactly what a fresh one would.
func (m *Memory) AreaSize(id word.AreaID) int {
	if int(id) >= len(m.areas) {
		return 0
	}
	return int(m.areas[id].hi)
}

// PhysicalPages reports how many physical pages have been allocated.
func (m *Memory) PhysicalPages() int { return int(m.nextPhys) }
