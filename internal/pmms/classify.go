package pmms

import "sort"

// Miss classification (the classic 3C model, trace-grounded):
//
//   - first-touch: the block number has never appeared in the stream —
//     no cache of this block size could have held it (the "compulsory"
//     class; with the shared first-touch ATU it is identical for every
//     lane of one block size).
//   - capacity: the block was seen before, but a fully-associative LRU
//     cache with the same number of blocks as the lane also misses it —
//     the working set simply exceeds the capacity.
//   - conflict: the fully-associative shadow holds the block but the
//     lane missed — the loss comes from set mapping or the replacement
//     policy, i.e. from the architecture, not the capacity.
//
// One shadow is kept per (block size, capacity-in-blocks) pair and
// shared across lanes: the shadow's state is a pure function of the
// access stream, so lanes of equal capacity classify against the same
// shadow regardless of their associativity or policy.

// MissBreakdown is one lane's classified miss counts. The classes
// partition the misses: FirstTouch + Capacity + Conflict == Misses ==
// Accesses - Hits.
type MissBreakdown struct {
	Misses     int64 `json:"misses"`
	FirstTouch int64 `json:"first_touch"`
	Capacity   int64 `json:"capacity"`
	Conflict   int64 `json:"conflict"`
}

// PredMiss attributes the reference lane's misses to the predicate
// that was executing when they happened (micro.NoPredicate for cycles
// outside any predicate, e.g. query setup — and for trace-file replays,
// which carry no predicate context).
type PredMiss struct {
	Pred int `json:"-"` // program predicate index; resolve via kl0.Program.ProcName
	MissBreakdown
}

// shadowLRU is a fully-associative LRU cache over block numbers with a
// map index and intrusive list links — O(1) per access at any capacity.
type shadowLRU struct {
	cap        int
	nodes      []shadowNode
	pos        map[uint32]int32
	head, tail int32 // head = MRU, tail = LRU
}

type shadowNode struct {
	block      uint32
	prev, next int32
}

func newShadowLRU(capBlocks int) *shadowLRU {
	return &shadowLRU{
		cap:  capBlocks,
		pos:  make(map[uint32]int32, capBlocks),
		head: -1,
		tail: -1,
	}
}

func (s *shadowLRU) unlink(i int32) {
	n := &s.nodes[i]
	if n.prev >= 0 {
		s.nodes[n.prev].next = n.next
	} else {
		s.head = n.next
	}
	if n.next >= 0 {
		s.nodes[n.next].prev = n.prev
	} else {
		s.tail = n.prev
	}
}

func (s *shadowLRU) pushFront(i int32) {
	n := &s.nodes[i]
	n.prev, n.next = -1, s.head
	if s.head >= 0 {
		s.nodes[s.head].prev = i
	}
	s.head = i
	if s.tail < 0 {
		s.tail = i
	}
}

// access probes and updates in one step, reporting whether the block
// was resident before the update.
func (s *shadowLRU) access(block uint32) bool {
	if i, ok := s.pos[block]; ok {
		if s.head != i {
			s.unlink(i)
			s.pushFront(i)
		}
		return true
	}
	var i int32
	if len(s.nodes) < s.cap {
		s.nodes = append(s.nodes, shadowNode{block: block})
		i = int32(len(s.nodes) - 1)
	} else {
		i = s.tail
		s.unlink(i)
		delete(s.pos, s.nodes[i].block)
		s.nodes[i].block = block
	}
	s.pos[block] = i
	s.pushFront(i)
	return false
}

// classShadow is one shared shadow plus its per-access probe result.
type classShadow struct {
	capBlocks int
	lru       *shadowLRU
	hit       bool // scratch: this access's pre-update probe
}

// blockSet is a set of physical block numbers. Physical pages are
// assigned densely from 0 in first-touch order, so block numbers are
// dense too and a bitset indexes them directly.
type blockSet []uint64

func (b blockSet) has(block uint32) bool {
	i := int(block >> 6)
	return i < len(b) && b[i]>>(block&63)&1 != 0
}

func (b *blockSet) add(block uint32) {
	i := int(block >> 6)
	if i >= len(*b) {
		*b = append(*b, make(blockSet, i+1-len(*b))...)
	}
	(*b)[i] |= 1 << (block & 63)
}

// classGroup is the classification state of one block-size lane group.
type classGroup struct {
	seen       blockSet // blocks touched so far
	shadows    []*classShadow
	laneShadow []int // per group lane: index into shadows
}

type classifier struct {
	refLane   int
	groups    []classGroup
	breakdown []MissBreakdown
	preds     map[int]*PredMiss
}

// Classify turns on per-miss classification (and per-predicate
// attribution of refLane's misses). Call it after NewSweeper and before
// feeding any access; the legacy path pays nothing when it is off.
func (s *Sweeper) Classify(refLane int) {
	cl := &classifier{
		refLane:   refLane,
		breakdown: make([]MissBreakdown, len(s.caches)),
		preds:     map[int]*PredMiss{},
	}
	for gi := range s.groups {
		g := &s.groups[gi]
		var cg classGroup
		for _, c := range g.lanes {
			capBlocks := c.Config().Words / c.Config().BlockWords
			si := -1
			for j, sh := range cg.shadows {
				if sh.capBlocks == capBlocks {
					si = j
					break
				}
			}
			if si < 0 {
				cg.shadows = append(cg.shadows, &classShadow{capBlocks: capBlocks, lru: newShadowLRU(capBlocks)})
				si = len(cg.shadows) - 1
			}
			cg.laneShadow = append(cg.laneShadow, si)
		}
		cl.groups = append(cl.groups, cg)
	}
	s.class = cl
}

// RefLane reports the lane whose misses carry predicate attribution.
func (s *Sweeper) RefLane() int {
	if s.class == nil {
		return -1
	}
	return s.class.refLane
}

// Misses returns lane i's classified miss breakdown (zero unless
// Classify was called before feeding).
func (s *Sweeper) Misses(i int) MissBreakdown {
	if s.class == nil {
		return MissBreakdown{}
	}
	return s.class.breakdown[i]
}

// PredMisses returns the reference lane's misses attributed per
// predicate, ordered by miss count (descending), predicate index
// breaking ties — a deterministic order for reports.
func (s *Sweeper) PredMisses() []PredMiss {
	if s.class == nil {
		return nil
	}
	out := make([]PredMiss, 0, len(s.class.preds))
	for _, pm := range s.class.preds {
		out = append(out, *pm)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Misses != out[j].Misses {
			return out[i].Misses > out[j].Misses
		}
		return out[i].Pred < out[j].Pred
	})
	return out
}

// classify records one lane miss. seen is whether the block was ever
// streamed before; shadowHit whether the lane's same-capacity
// fully-associative shadow held it.
func (cl *classifier) classify(lane int, pred int, seen, shadowHit bool) {
	b := &cl.breakdown[lane]
	b.Misses++
	switch {
	case !seen:
		b.FirstTouch++
	case !shadowHit:
		b.Capacity++
	default:
		b.Conflict++
	}
	if lane != cl.refLane {
		return
	}
	pm := cl.preds[pred]
	if pm == nil {
		pm = &PredMiss{Pred: pred}
		cl.preds[pred] = pm
	}
	pm.Misses++
	switch {
	case !seen:
		pm.FirstTouch++
	case !shadowHit:
		pm.Capacity++
	default:
		pm.Conflict++
	}
}
