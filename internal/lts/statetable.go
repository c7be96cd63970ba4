package lts

// This file implements the exploration-owned state table: the
// hashed state-vector store of explicit-state model checkers (Holzmann,
// The Model Checker SPIN, IEEE TSE 1997). Every state's rank-sorted
// component vector is stored once, in the LTS's flat arena; the table is
// an open-addressed (linear-probing) index of state numbers over that
// arena, keyed by a hash of the vector. Ranks are unique within an
// exploration, so the rank-sorted vector is already the canonical key of
// the component multiset. The table belongs to the one goroutine that
// explores, so it takes no locks, and nothing of it enters the shared
// interner.

import (
	"slices"

	"effpi/internal/types"
)

// hashVector hashes a component vector for the state table. It is a
// variable so tests can force every vector into one bucket.
var hashVector = func(v []types.ID) uint64 {
	h := uint64(len(v)) ^ 0x9e3779b97f4a7c15
	for _, id := range v {
		h = (h ^ uint64(uint32(id))) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return h
}

// slot is one entry of the state table: the high half of the vector's
// hash (compared before the vector itself) and the state number plus
// one, so the zero slot is empty.
type slot struct {
	tag   uint32
	state int32
}

// stateTable indexes the state vectors of one exploration's arena. It
// keeps at least half its slots empty, so every probe ends.
type stateTable struct {
	slots []slot
	n     int
}

func newStateTable() stateTable { return stateTable{slots: make([]slot, 256)} }

// find returns the state whose vector is v, or -1 with the empty slot
// where v belongs and the tag to store there (what insert takes). It
// grows the table first when one more state would pass the load bound,
// so the slot stays valid for the insert.
func (t *stateTable) find(l *LTS, v []types.ID) (state int32, at int, tag uint32) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow(l)
	}
	h := hashVector(v)
	tag, mask := uint32(h>>32), len(t.slots)-1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		sl := t.slots[i]
		if sl.state == 0 {
			return -1, i, tag
		}
		if sl.tag == tag && slices.Equal(l.StateComps(int(sl.state-1)), v) {
			return sl.state - 1, i, tag
		}
	}
}

// insert records state s at the empty slot find returned for its vector.
func (t *stateTable) insert(at int, tag uint32, s int32) {
	t.slots[at] = slot{tag: tag, state: s + 1}
	t.n++
}

// grow doubles the table and re-indexes every state from the arena.
func (t *stateTable) grow(l *LTS) {
	t.slots = make([]slot, 2*len(t.slots))
	mask := len(t.slots) - 1
	for s := 0; s < t.n; s++ {
		h := hashVector(l.StateComps(s))
		i := int(h) & mask
		for t.slots[i].state != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = slot{tag: uint32(h >> 32), state: int32(s) + 1}
	}
}
