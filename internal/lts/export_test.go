package lts

import (
	"context"
	"slices"
	"testing"
	"unsafe"

	"effpi/internal/typelts"
	"effpi/internal/types"
)

// CollideStateHashes zeroes every state hash for the rest of the test,
// so the state table can tell states apart only by comparing keys.
func CollideStateHashes(t testing.TB) {
	hashMask = 0
	t.Cleanup(func() { hashMask = ^uint64(0) })
}

// SetChunkGeometry sets the chunk geometry of the LTS arrays for the
// rest of the test: a first chunk of 1<<first elements, doubling up to
// 1<<cap. An LTS must be read under the geometry it was built with.
func SetChunkGeometry(t testing.TB, first, cap int) {
	f, c := chunkFirstLog, chunkCapLog
	chunkFirstLog, chunkCapLog = first, cap
	t.Cleanup(func() { chunkFirstLog, chunkCapLog = f, c })
}

// Chunks returns the number of chunks of the LTS's key store and of its
// edges, not counting the slots an oversized chunk spans.
func Chunks(l *LTS) (keys, edges int) {
	return chunkCount(&l.keys), chunkCount(&l.edges)
}

func chunkCount[T any](c *chunked[T]) int {
	n := 0
	for _, ch := range c.chunks {
		if ch != nil {
			n++
		}
	}
	return n
}

// KeyWords returns the number of words in each of the LTS's state keys.
func KeyWords(l *LTS) int { return 1 << l.wlog }

// KeptBytes returns the bytes the LTS's own arrays hold: every chunk and
// chunk list of its key store, edges, offsets and edge permutations at
// full capacity, its rank decoding, its alphabet and its orbit sizes.
func KeptBytes(l *LTS) int64 {
	n := chunkedBytes(&l.keys) + chunkedBytes(&l.edges) + chunkedBytes(&l.start)
	n += int64(cap(l.comp))*int64(unsafe.Sizeof(types.ID(0))) + int64(cap(l.first))*4
	n += int64(cap(l.Labels)) * int64(unsafe.Sizeof(typelts.Label(nil)))
	if l.Sym != nil {
		n += chunkedBytes(&l.Sym.edgePerms) + int64(cap(l.Sym.OrbitSizes))*8
	}
	return n
}

func chunkedBytes[T any](c *chunked[T]) int64 {
	var x T
	n := int64(cap(c.chunks)) * int64(unsafe.Sizeof([]T(nil)))
	for _, ch := range c.chunks {
		n += int64(cap(ch)) * int64(unsafe.Sizeof(x))
	}
	return n
}

// ExpansionCheck counts what CheckExpansions compared.
type ExpansionCheck struct {
	States, Proposals, Seen int
}

// CheckExpansions explores init — with Explore's worklist, or through an
// Incremental driven depth-first to every reachable state — and checks,
// before each state is expanded, both halves of rank-table expansion
// against a reference:
//   - the partner-rank sweep of expandState must propose exactly what a
//     sweep over all k(k−1) ordered pairs, filtered by typelts.MaySync,
//     proposes, in the same order;
//   - for every proposal, findEdit must return exactly what building the
//     successor multiset, keying it copy by copy and probing with
//     stateTable.find returns.
func CheckExpansions(t testing.TB, sem *typelts.Semantics, init types.Type, opts Options, incremental bool) ExpansionCheck {
	t.Helper()
	var n ExpansionCheck
	fails := 0
	check := func(b *builder, s int) {
		comps := b.l.StateComps(s)
		b.expandState(s)
		got := b.props
		want := referenceProposals(b, comps)
		n.States++
		if !sameProposals(got, want) && fails < 5 {
			fails++
			t.Errorf("state %d %v: partner sweep proposed %v, the k(k−1) sweep %v", s, comps, got, want)
		}
		for _, p := range got {
			n.Proposals++
			wantState, wantAt, wantTag := referenceFind(b, p)
			gotState, gotAt, gotTag := b.findEdit(p)
			if wantState >= 0 {
				n.Seen++
			}
			if (gotState != wantState || gotAt != wantAt || gotTag != wantTag) && fails < 5 {
				fails++
				t.Errorf("state %d, proposal %v: edit probe (%d, %d, %#x), reference (%d, %d, %#x)", s, p, gotState, gotAt, gotTag, wantState, wantAt, wantTag)
			}
		}
	}
	if !incremental {
		b := prepBuilder(context.Background(), sem, init, opts)
		for s := 0; s < b.l.Len(); s++ {
			check(b, s)
			b.l.start.add(int32(b.expand(s)))
		}
		return n
	}
	x := NewIncremental(sem, init, opts)
	stack := []int{x.Initial()}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, ok := x.expansion(s); ok {
			continue
		}
		check(x.b, s)
		out, err := x.Succ(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range out {
			stack = append(stack, int(e.Dst))
		}
	}
	return n
}

// referenceProposals is expandState without the rank table: every
// component's solo steps, then every ordered pair of positions whose
// ports may meet.
func referenceProposals(b *builder, comps []types.ID) []proposal {
	var ps []proposal
	entries := make([]*typelts.Component, len(comps))
	for i, id := range comps {
		entries[i] = b.sem.Component(id)
		for k := range entries[i].Steps {
			if b.sem.KeepLabel(entries[i].Steps[k].Label) {
				ps = append(ps, proposal{m: &move{st: &entries[i].Steps[k]}, i: int32(i), j: -1})
			}
		}
	}
	for i, x := range entries {
		for j, y := range entries {
			if i == j || !typelts.MaySync(&x.Ports, &y.Ports) {
				continue
			}
			steps := b.sem.SyncSteps(x.ID, y.ID)
			for k := range steps {
				ps = append(ps, proposal{m: &move{st: &steps[k]}, i: int32(i), j: int32(j)})
			}
		}
	}
	return ps
}

// sameProposals compares two proposal lists by acting positions, label
// and successor components.
func sameProposals(a, b []proposal) bool {
	return slices.EqualFunc(a, b, func(p, q proposal) bool {
		return p.i == q.i && p.j == q.j && p.m.st.Key == q.m.st.Key && slices.Equal(p.m.st.Next, q.m.st.Next)
	})
}

// referenceFind builds the successor multiset of p, keys it by setting
// the ranks of copies 0…m−1 of each component held m times and probes
// the table with that key. A component or copy without a rank is in no
// state, so then the successor is new: (-1, -1, 0), as findEdit reports
// it.
func referenceFind(b *builder, p proposal) (int32, int, uint32) {
	count := map[types.ID]int{}
	for k, r := range b.curRanks {
		if k != int(p.i) && k != int(p.j) {
			count[b.l.comp[r]]++
		}
	}
	for _, id := range p.m.st.Next {
		count[id]++
	}
	key := make([]uint64, 1<<b.l.wlog)
	for id, m := range count {
		r, ok := b.ranks.idx[id]
		if !ok || m > 1+len(b.ranks.rows[r].copies) {
			return -1, -1, 0
		}
		key[r>>6] |= 1 << (r & 63)
		for _, c := range b.ranks.rows[r].copies[:m-1] {
			key[c>>6] |= 1 << (c & 63)
		}
	}
	return b.table.find(b.l, key)
}
