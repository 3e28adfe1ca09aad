package cache

// VictimHitNS is the stall of a miss served from the victim buffer: the
// block swaps back from the buffer in one extra microcycle instead of
// the full 600 ns read-in from main memory.
const VictimHitNS = 200

// victimEntry is one fully-associative victim-buffer slot.
type victimEntry struct {
	block uint32 // physical block number (row and tag together)
	valid bool
	dirty bool
}

// victimBuffer is the classic small fully-associative victim cache
// (Jouppi): blocks evicted from the main array park here instead of
// leaving immediately, and a main-array miss probes the buffer before
// going to memory. True LRU over the (few) entries; a dirty block's
// write-back is deferred until it falls out of the buffer too.
type victimBuffer struct {
	entries []victimEntry
	order   *trueLRU // one row of len(entries) ways
}

func newVictimBuffer(n int) *victimBuffer {
	if n <= 0 {
		return nil
	}
	return &victimBuffer{
		entries: make([]victimEntry, n),
		order:   newTrueLRU(1, n),
	}
}

// take removes block from the buffer if present, returning its dirty
// bit. The freed slot is immediately reusable by insert.
func (v *victimBuffer) take(block uint32) (dirty, ok bool) {
	for i := range v.entries {
		if v.entries[i].valid && v.entries[i].block == block {
			d := v.entries[i].dirty
			v.entries[i] = victimEntry{}
			return d, true
		}
	}
	return false, false
}

// insert parks an evicted block, evicting the LRU occupant when full.
// It reports whether a valid dirty block fell out (a deferred
// write-back the caller must account).
func (v *victimBuffer) insert(block uint32, dirty bool) (evictedDirty bool) {
	slot := -1
	for i := range v.entries {
		if !v.entries[i].valid {
			slot = i
			break
		}
	}
	if slot < 0 {
		slot = v.order.Victim(0)
		evictedDirty = v.entries[slot].dirty
	}
	v.entries[slot] = victimEntry{block: block, valid: true, dirty: dirty}
	v.order.Fill(0, slot)
	return evictedDirty
}

func (v *victimBuffer) reset() {
	for i := range v.entries {
		v.entries[i] = victimEntry{}
	}
	v.order.Reset()
}
