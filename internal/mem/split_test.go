package mem

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/word"
)

// op is one step of a memory command stream: a Write when write is set,
// else a Read; Cell is tried first, as the machine does.
type op struct {
	a     word.Addr
	write bool
	w     word.Word
}

// access applies one op the way the machine's memory cycle does: the
// Cell short path when it applies, else Translate then CellSlow. It
// returns the physical address and the word read (or written).
func access(m *Memory, o op) (uint32, word.Word) {
	phys, cell, ok := m.Cell(o.a, o.write)
	if !ok {
		phys = m.Translate(o.a)
		cell = m.CellSlow(o.a, o.write)
	}
	if o.write {
		*cell = o.w
	}
	return phys, *cell
}

// stream draws a seeded command stream over every area of a two-process
// memory. Offsets cluster near page boundaries and reach far past the
// initial backing array, so the stream crosses every slow path: storage
// growth, table growth and first-touch page allocation.
func stream(seed int64, n int, maxOff uint32) []op {
	r := rand.New(rand.NewSource(seed))
	areas := word.NumAreas(2)
	out := make([]op, n)
	for i := range out {
		var off uint32
		switch r.Intn(3) {
		case 0: // straddle a page boundary
			off = uint32(r.Intn(int(maxOff/PageWords)+1))*PageWords + uint32(r.Intn(5)) - 2
		case 1: // near the bottom, as the stacks are
			off = uint32(r.Intn(64))
		default:
			off = uint32(r.Intn(int(maxOff)))
		}
		out[i] = op{
			a:     word.MakeAddr(word.AreaID(r.Intn(areas)), off&(maxOff-1)),
			write: r.Intn(3) == 0,
			w:     word.New(word.TagInt, uint32(r.Int31())),
		}
	}
	return out
}

// TestSplitPathsMatchReference runs a command stream that crosses the
// backing arrays' ends and page boundaries through the split paths and
// checks every read against a map model, every translation for
// stability, and Read/Write against Cell.
func TestSplitPathsMatchReference(t *testing.T) {
	m := New(2)
	model := map[word.Addr]word.Word{}
	pages := map[uint32]uint32{} // area<<20 | logical page -> physical page
	for i, o := range stream(1, 20000, 1<<16) {
		phys, got := access(m, o)
		if o.write {
			model[o.a] = o.w
		} else if got != model[o.a] {
			t.Fatalf("op %d: read %v = %v, want %v", i, o.a, got, model[o.a])
		}
		key := uint32(o.a.Area())<<20 | o.a.Offset()/PageWords
		if p, ok := pages[key]; ok && p != phys/PageWords {
			t.Fatalf("op %d: %v moved from physical page %d to %d", i, o.a, p, phys/PageWords)
		}
		pages[key] = phys / PageWords
		if phys%PageWords != o.a.Offset()%PageWords {
			t.Fatalf("op %d: %v translated to %d, page offset lost", i, o.a, phys)
		}
		if r := m.Read(o.a); r != got {
			t.Fatalf("op %d: Read %v = %v, Cell gave %v", i, o.a, r, got)
		}
	}
	if m.PhysicalPages() != len(pages) {
		t.Errorf("%d physical pages for %d logical pages", m.PhysicalPages(), len(pages))
	}
	// Write's own short and slow paths agree with the model too.
	for a, w := range model {
		m.Write(a, w+1)
		if got := m.Read(a); got != w+1 {
			t.Fatalf("Write/Read %v = %v, want %v", a, got, w+1)
		}
	}
}

// TestResetClearsBackingAndReplaysFresh runs a large stream — growing
// every area far past its first page — then Resets. The whole retained
// backing array must be zero (Reset clears only the written prefix, so
// this checks that nothing above the high-water mark was ever written),
// and a small stream on the reset memory must behave exactly as on a
// fresh one: the same reads, physical addresses in the same first-touch
// order, the same high-water marks.
func TestResetClearsBackingAndReplaysFresh(t *testing.T) {
	m := New(2)
	for _, o := range stream(2, 50000, 1<<18) {
		access(m, o)
	}
	m.Reset()
	for i, ar := range m.areas {
		for off, w := range ar.words {
			if w != 0 {
				t.Fatalf("area %d word %d = %v after Reset", i, off, w)
			}
		}
		for pg, p := range ar.pages {
			if p != 0 {
				t.Fatalf("area %d page %d still mapped to %d after Reset", i, pg, p)
			}
		}
	}
	if m.PhysicalPages() != 0 {
		t.Fatalf("%d physical pages after Reset", m.PhysicalPages())
	}
	fresh := New(2)
	for i, o := range stream(3, 3000, 1<<12) {
		p1, w1 := access(m, o)
		p2, w2 := access(fresh, o)
		if p1 != p2 || w1 != w2 {
			t.Fatalf("op %d on %v: reset memory gave (%d, %v), fresh (%d, %v)", i, o.a, p1, w1, p2, w2)
		}
	}
	for id := word.AreaID(0); int(id) < word.NumAreas(2); id++ {
		if m.AreaSize(id) != fresh.AreaSize(id) {
			t.Errorf("area %d: high water %d after Reset, fresh %d", id, m.AreaSize(id), fresh.AreaSize(id))
		}
	}
	if m.PhysicalPages() != fresh.PhysicalPages() {
		t.Errorf("physical pages %d after Reset, fresh %d", m.PhysicalPages(), fresh.PhysicalPages())
	}
}

// TestParityHookFiresOnEveryAccess arms a memory-site injector set to
// trigger at access k and checks that the k-th Read or Write of a mixed
// stream — short-path and slow-path addresses alike — raises the check,
// and no earlier one does: the hook fires on every access while armed.
func TestParityHookFiresOnEveryAccess(t *testing.T) {
	ops := stream(4, 40, 1<<13)
	for k := 1; k <= len(ops); k++ {
		m := New(2)
		for _, o := range ops[:len(ops)/2] { // the rest reach past the warmed storage
			access(m, o)
		}
		inj := (&fault.Plan{Site: fault.SiteMem, After: int64(k), Seed: 1}).New()
		inj.Arm()
		m.SetInjector(inj)
		if _, _, ok := m.Cell(ops[0].a, false); ok {
			t.Fatal("Cell short path taken with an injector armed")
		}
		fired := -1
		for i, o := range ops {
			if raised(func() {
				if o.write {
					m.Write(o.a, o.w)
				} else {
					m.Read(o.a)
				}
			}) {
				fired = i + 1
				break
			}
		}
		if fired != k {
			t.Fatalf("plan after=%d: check raised at access %d", k, fired)
		}
	}
}

// raised reports whether f panicked with a memory-site fault check.
func raised(f func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			c, isCheck := r.(*fault.Check)
			if !isCheck {
				panic(r)
			}
			ok = c.Site == fault.SiteMem
		}
	}()
	f()
	return false
}
