package lts

// This file implements the exploration-owned state table: the hashed
// state store of explicit-state model checkers (Holzmann, The Model
// Checker SPIN, IEEE TSE 1997), with every state compressed to one
// fixed-width key — collapse compression (Holzmann, State compression in
// SPIN, SPIN 1997) taken to its limit. A state's key is the bitset of
// its components' ranks, and the k-th copy of a component has a rank of
// its own (rankTable), so a key is exact: two states have equal keys
// iff they are the same multiset. The keys are stored once, packed in
// the LTS's chunked store; the table is an open-addressed
// (linear-probing) index of state numbers over that store, keyed by a
// hash of the key, and a probe compares keys only. The table belongs to
// the one goroutine that explores, so it takes no locks, and nothing of
// it enters the shared interner.
//
// A key has 1<<wlog words. When a rank of 64<<wlog or more is assigned,
// the width doubles: every stored key is rewritten at the new width
// (LTS.fit) and the table is rehashed.

import (
	"math/bits"
	"slices"
)

// hashMask is and-ed into every state hash. It is all ones; tests zero
// it to force every state into one bucket, so the table must tell states
// apart by comparing keys alone.
var hashMask = ^uint64(0)

// keyHash hashes a state key for the table.
func keyHash(key []uint64) uint64 {
	var h uint64
	for _, x := range key {
		h = (bits.RotateLeft64(h, 23) ^ x) * 0x9e3779b97f4a7c15
	}
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 29
	return h & hashMask
}

// stateTable indexes the state keys of one exploration's store. It has
// 1<<k slots and keeps at least half of them empty, so every probe ends
// and a state number plus one fits in a slot's low k bits; the bits
// above hold the tag, the same bits of the key's hash, compared before
// the key itself. The zero slot is empty.
type stateTable struct {
	slots []uint32
	n     int
}

func newStateTable() stateTable { return stateTable{slots: make([]uint32, 256)} }

// find returns the state whose key is key, or -1 with the empty slot
// where key belongs and the tag to store there (what insert takes).
func (t *stateTable) find(l *LTS, key []uint64) (state int32, at int, tag uint32) {
	t.reserve(l)
	h := keyHash(key)
	mask := uint32(len(t.slots) - 1)
	tag = uint32(h>>32) &^ mask
	for i := uint32(h) & mask; ; i = (i + 1) & mask {
		sl := t.slots[i]
		if sl == 0 {
			return -1, int(i), tag
		}
		if sl&^mask == tag && slices.Equal(l.key(int(sl&mask)-1), key) {
			return int32(sl&mask) - 1, int(i), tag
		}
	}
}

// reserve grows the table when one more state would pass the load
// bound. Every probe calls it first, so the empty slot a probe returns
// stays valid for the insert.
func (t *stateTable) reserve(l *LTS) {
	if 2*(t.n+1) > len(t.slots) {
		t.rehash(l, 2*len(t.slots))
	}
}

// insert records state s at the empty slot find returned for its key.
func (t *stateTable) insert(at int, tag uint32, s int32) {
	t.slots[at] = tag | uint32(s+1)
	t.n++
}

// rehash re-indexes every state from the store in a table of size
// slots: when the table grows, and when the keys are widened.
func (t *stateTable) rehash(l *LTS, size int) {
	t.slots = make([]uint32, size)
	mask := uint32(size - 1)
	for s := 0; s < t.n; s++ {
		h := keyHash(l.key(s))
		i := uint32(h) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = uint32(h>>32)&^mask | uint32(s+1)
	}
}
