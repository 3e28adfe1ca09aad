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
	areas [][]word.Word
	// pages is the hardware address translation table: per area, the
	// physical page number + 1 for each logical page (0 = not yet
	// mapped). A dense slice per area replaces the obvious hash map —
	// translation runs once per simulated memory access, making it one
	// of the hottest loads in the whole simulator.
	pages    [][]uint32
	nextPhys uint32
	// hi is the per-area high-water mark of words written this run
	// (offset of the highest write + 1). Unlike the backing storage —
	// which Reset keeps allocated for reuse — this is per-run state, so
	// a pooled machine reports the same memory footprint a fresh one
	// would.
	hi  []uint32
	inj *fault.Injector // nil outside chaos runs
}

// SetInjector attaches (or with nil detaches) the fault injector whose
// MemAccess hook models the memory parity checker. The machine wires
// this on New/Reset, so a pooled memory never retains a previous run's
// injector.
func (m *Memory) SetInjector(inj *fault.Injector) { m.inj = inj }

// New allocates a memory with room for the given number of processes
// (heap plus four stack areas each).
func New(processes int) *Memory {
	return &Memory{
		areas: make([][]word.Word, word.NumAreas(processes)),
		pages: make([][]uint32, word.NumAreas(processes)),
		hi:    make([]uint32, word.NumAreas(processes)),
	}
}

// grow extends area storage to cover offset and returns the grown
// slice. Kept out of the Read/Write hot path so those inline: the
// common case is a two-compare bounds probe.
func (m *Memory) grow(area word.AreaID, offset uint32) []word.Word {
	if int(area) >= len(m.areas) {
		// Invariant panic: area ids come from the machine's own context
		// setup, never from user input. Reaching this is a simulator
		// bug; the session boundary contains it as engine.ErrFault.
		panic(fmt.Sprintf("mem: area %d out of range", area))
	}
	a := m.areas[area]
	n := len(a)
	if n == 0 {
		n = PageWords
	}
	for n <= int(offset) {
		n *= 2
	}
	grown := make([]word.Word, n)
	copy(grown, a)
	m.areas[area] = grown
	return grown
}

// Read returns the word at a logical address.
func (m *Memory) Read(a word.Addr) word.Word {
	area, off := a.Area(), a.Offset()
	s := m.areas[area]
	if uint32(len(s)) <= off {
		s = m.grow(area, off)
	}
	if m.inj != nil {
		m.inj.MemAccess(a)
	}
	return s[off]
}

// Write stores a word at a logical address.
func (m *Memory) Write(a word.Addr, w word.Word) {
	area, off := a.Area(), a.Offset()
	s := m.areas[area]
	if uint32(len(s)) <= off {
		s = m.grow(area, off)
	}
	if off >= m.hi[area] {
		m.hi[area] = off + 1
	}
	if m.inj != nil {
		m.inj.MemAccess(a)
	}
	s[off] = w
}

// Translate maps a logical address to a physical word address through the
// address translation table, allocating physical pages on first touch.
func (m *Memory) Translate(a word.Addr) uint32 {
	off := a.Offset()
	pg := off >> pageShift
	t := m.pages[a.Area()]
	if uint32(len(t)) <= pg {
		t = m.growPages(a.Area(), pg)
	}
	phys := t[pg]
	if phys == 0 {
		m.nextPhys++
		phys = m.nextPhys
		t[pg] = phys
	}
	return (phys-1)*PageWords + off&(PageWords-1)
}

// growPages extends one area's translation slice to cover page pg.
func (m *Memory) growPages(area word.AreaID, pg uint32) []uint32 {
	t := m.pages[area]
	n := uint32(len(t))
	if n == 0 {
		n = 8
	}
	for n <= pg {
		n *= 2
	}
	grown := make([]uint32, n)
	copy(grown, t)
	m.pages[area] = grown
	return grown
}

// Reset returns the memory to its post-New state while keeping the area
// storage allocated for reuse. The translation table is cleared too, so a
// reset memory allocates physical pages in exactly the first-touch order
// of a fresh run — cache behaviour after a Reset is bit-identical to a
// fresh machine's.
func (m *Memory) Reset() {
	for i, a := range m.areas {
		if a != nil {
			clear(a)
			m.areas[i] = a
		}
	}
	for _, t := range m.pages {
		clear(t)
	}
	clear(m.hi)
	m.nextPhys = 0
}

// AreaSize reports the high-water mark of an area in words: the extent
// of the words written since New or the last Reset. It deliberately
// ignores the (retained, possibly larger) backing storage so a pooled,
// reset memory reports exactly what a fresh one would.
func (m *Memory) AreaSize(area word.AreaID) int {
	if int(area) >= len(m.hi) {
		return 0
	}
	return int(m.hi[area])
}

// PhysicalPages reports how many physical pages have been allocated.
func (m *Memory) PhysicalPages() int { return int(m.nextPhys) }
