package lts

import (
	"context"
	"slices"
	"testing"

	"effpi/internal/typelts"
	"effpi/internal/types"
)

// CollideStateHashes zeroes every state hash for the rest of the test,
// the full hash of a vector and the incremental hash of an edit alike,
// so the state table can tell states apart only by comparing vectors.
func CollideStateHashes(t testing.TB) {
	hashMask = 0
	t.Cleanup(func() { hashMask = ^uint64(0) })
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
//     successor, sorting it by rank and probing with stateTable.find
//     returns.
func CheckExpansions(t testing.TB, sem *typelts.Semantics, init types.Type, opts Options, incremental bool) ExpansionCheck {
	t.Helper()
	var n ExpansionCheck
	fails := 0
	check := func(b *builder, s int) {
		comps := b.l.StateComps(s)
		b.expandState(comps)
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
			from := b.l.start[s]
			b.expand(s, from)
			b.finishState(s, from)
		}
		return n
	}
	x := NewIncremental(sem, init, opts)
	stack := []int{x.Initial()}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s < len(x.lo) && x.lo[s] >= 0 {
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

// referenceFind builds the successor of p, sorts it by rank when every
// component has one (a component without a rank is in no state, so the
// order cannot matter) and probes the table with it.
func referenceFind(b *builder, p proposal) (int32, int, uint32) {
	var succ []types.ID
	for k, c := range b.cur {
		if k != int(p.i) && k != int(p.j) {
			succ = append(succ, c)
		}
	}
	succ = append(succ, p.m.st.Next...)
	rs := make([]int32, len(succ))
	for k, id := range succ {
		r, ok := b.ranks.idx[id]
		if !ok {
			return b.table.find(b.l, succ)
		}
		rs[k] = r
	}
	sortByRanks(succ, rs)
	return b.table.find(b.l, succ)
}
