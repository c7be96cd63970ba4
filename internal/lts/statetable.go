package lts

// This file implements the exploration-owned state table: the
// hashed state-vector store of explicit-state model checkers (Holzmann,
// The Model Checker SPIN, IEEE TSE 1997). Every state's rank-sorted
// component vector is stored once, as one run of the LTS's chunked
// arena; the table is an open-addressed (linear-probing) index of state
// numbers over that arena, keyed by a hash of the vector. Ranks are unique within an
// exploration, so the rank-sorted vector is already the canonical key of
// the component multiset. The table belongs to the one goroutine that
// explores, so it takes no locks, and nothing of it enters the shared
// interner.
//
// The hash is additive over the multiset (Nguyen & Ruys, Incremental
// Hashing for SPIN, SPIN 2008): a state's hash is a finalising mix of
// the sum of one term per component and the component count. A
// successor's hash is therefore the parent's sum minus the acting
// components' terms plus their replacements' terms, and the builder
// probes for a successor without building its vector (findEdit).

import (
	"slices"

	"effpi/internal/types"
)

// hashMask is and-ed into every state hash. It is all ones; tests zero
// it to force every state into one bucket, so the table must tell states
// apart by comparing vectors alone.
var hashMask = ^uint64(0)

// compTerm is one component's term of the additive multiset hash.
func compTerm(id types.ID) uint64 {
	x := uint64(uint32(id)) * 0x9e3779b97f4a7c15
	x ^= x >> 32
	return x * 0xbf58476d1ce4e5b9
}

// stateHash finalises the sum of the component terms of an n-component
// state into its table hash.
func stateHash(sum uint64, n int) uint64 {
	h := sum + uint64(n)*0x94d049bb133111eb
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 29
	return h & hashMask
}

// termSum sums the hash terms of a component vector.
func termSum(v []types.ID) uint64 {
	var sum uint64
	for _, id := range v {
		sum += compTerm(id)
	}
	return sum
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
// where v belongs and the tag to store there (what insert takes). The
// builder's findEdit is the same probe for a successor given as an edit
// of its parent.
func (t *stateTable) find(l *LTS, v []types.ID) (state int32, at int, tag uint32) {
	t.reserve(l)
	h := stateHash(termSum(v), len(v))
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

// reserve grows the table when one more state would pass the load
// bound. Every probe calls it first, so the empty slot a probe returns
// stays valid for the insert.
func (t *stateTable) reserve(l *LTS) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow(l)
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
		v := l.StateComps(s)
		h := stateHash(termSum(v), len(v))
		i := int(h) & mask
		for t.slots[i].state != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = slot{tag: uint32(h >> 32), state: int32(s) + 1}
	}
}
