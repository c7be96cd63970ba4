package lts

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"effpi/internal/typelts"
	"effpi/internal/types"
)

// classedOut views m's edges with labels mapped through classOf (nil =
// identity), as the out function refineCSR consumes.
func classedOut(m *LTS, classOf []int32) func(int) []Edge {
	if classOf == nil {
		return m.Out
	}
	edges := make([][]Edge, m.Len())
	for s := range edges {
		for _, e := range m.Out(s) {
			edges[s] = append(edges[s], Edge{Label: classOf[e.Label], Dst: e.Dst})
		}
	}
	return func(s int) []Edge { return edges[s] }
}

// moveSet is state s's sorted, deduplicated (label, block) move set.
func moveSet(out func(int) []Edge, blockOf []int32, s int) []Edge {
	var ms []Edge
	for _, e := range out(s) {
		ms = append(ms, Edge{Label: e.Label, Dst: blockOf[e.Dst]})
	}
	slices.SortFunc(ms, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.Label, b.Label), cmp.Compare(a.Dst, b.Dst))
	})
	return slices.Compact(ms)
}

// quotientOf builds the identity-class quotient of m as a plain LTS:
// blocks become states and each block's first member's moves its edges.
func quotientOf(m *LTS, blockOf []int32, blocks int) *LTS {
	states := make([]types.Type, blocks)
	adj := make([][]AdjEdge, blocks)
	for s := m.Len() - 1; s >= 0; s-- {
		b := blockOf[s]
		states[b] = m.StateType(s)
		adj[b] = adj[b][:0]
		for _, mv := range moveSet(m.Out, blockOf, s) {
			adj[b] = append(adj[b], AdjEdge{Label: m.Labels[mv.Label], Dst: int(mv.Dst)})
		}
	}
	return FromAdjacency(states, adj, int(blockOf[m.Initial]))
}

// TestRefineBisimilarToFull: for every exploration fixture, the
// identity-class quotient is strongly bisimilar to the concrete LTS —
// the defining property of a bisimulation quotient, decided by the same
// refiner on the disjoint union (a genuinely different input).
func TestRefineBisimilarToFull(t *testing.T) {
	for _, fx := range exploreFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			m, err := Explore(fx.sem(), fx.init, Options{})
			if err != nil {
				t.Fatal(err)
			}
			blockOf, blocks := refineCSR(m.Len(), m.Out)
			if blocks > m.Len() {
				t.Fatalf("partition has %d blocks for %d states", blocks, m.Len())
			}
			if !Bisimilar(m, quotientOf(m, blockOf, blocks)) {
				t.Errorf("identity-class quotient is not bisimilar to the full LTS (%d states → %d blocks)", m.Len(), blocks)
			}
		})
	}
}

// TestRefineStability checks the partition's defining stability
// property state by state: every member of a block has exactly the
// block's (label, destination block) move set.
func TestRefineStability(t *testing.T) {
	sem, init := philosophersFixture(4)
	m, err := Explore(sem, init, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, classes := range map[string][]int32{
		"identity": nil,
		"coarse":   make([]int32, len(m.Labels)), // every label one class
	} {
		out := classedOut(m, classes)
		blockOf, blocks := refineCSR(m.Len(), out)
		first := make([]int, blocks)
		for b := range first {
			first[b] = -1
		}
		for s := 0; s < m.Len(); s++ {
			b := blockOf[s]
			if first[b] < 0 {
				first[b] = s
				continue
			}
			if got, want := moveSet(out, blockOf, s), moveSet(out, blockOf, first[b]); !slices.Equal(got, want) {
				t.Fatalf("%s: state %d moves %v, but block %d's first member %d moves %v", name, s, got, b, first[b], want)
			}
		}
	}
}

// TestRefineCoarseClassesCollapse: with every label in one class, the
// no-deadlock philosophers LTS — where every state can always keep
// moving — collapses to a single block.
func TestRefineCoarseClassesCollapse(t *testing.T) {
	sem, init := philosophersFixture(3)
	m, err := Explore(sem, init, Options{})
	if err != nil {
		t.Fatal(err)
	}
	blockOf, blocks := refineCSR(m.Len(), classedOut(m, make([]int32, len(m.Labels))))
	if blocks != 1 {
		t.Errorf("single-class partition of an always-live LTS: %d blocks, want 1", blocks)
	}
	if got := blockOf[m.Initial]; got != 0 {
		t.Errorf("initial block = %d, want 0", got)
	}
}

// TestRefineEncounterRankContract pins the deterministic numbering
// contract directly: scanning states 0..n-1, blocks are first met in
// the order 0, 1, 2, … — numbered by the first state that reaches
// them, never by map order.
func TestRefineEncounterRankContract(t *testing.T) {
	sem, init := philosophersFixture(4)
	m, err := Explore(sem, init, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, classes := range [][]int32{nil, make([]int32, len(m.Labels))} {
		blockOf, blocks := refineCSR(m.Len(), classedOut(m, classes))
		next := int32(0)
		for s, b := range blockOf {
			if b > next {
				t.Fatalf("state %d opens block %d before block %d was met: blocks are not in encounter-rank order", s, b, next)
			}
			if b == next {
				next++
			}
		}
		if int(next) != blocks {
			t.Errorf("%d blocks met, %d reported", next, blocks)
		}
	}
}

// TestRefineIndependentOfInternOrder attacks the refiner's determinism
// the same way TestExploreIndependentOfInternOrder attacks the
// explorer's: pre-intern the system's components in hostile orders (so
// interner ID values differ wildly), explore, and require the partition to be byte-identical in every run.
func TestRefineIndependentOfInternOrder(t *testing.T) {
	baselineSem, init := philosophersFixture(3)
	baseline, err := Explore(baselineSem, init, Options{})
	if err != nil {
		t.Fatal(err)
	}
	coarse := func(m *LTS) []int32 {
		// A two-class view (τ vs everything else): coarse enough to
		// merge states, fine enough to keep structure.
		classes := make([]int32, len(m.Labels))
		for i, lab := range m.Labels {
			if !typelts.IsTau(lab) {
				classes[i] = 1
			}
		}
		return classes
	}
	partition := func(m *LTS, classes []int32) string {
		blockOf, blocks := refineCSR(m.Len(), classedOut(m, classes))
		return fmt.Sprint(blocks, blockOf)
	}
	wantID := partition(baseline, nil)
	wantCoarse := partition(baseline, coarse(baseline))

	var comps []types.Type
	seen := map[string]bool{}
	for s := range baseline.Len() {
		for _, c := range types.FlattenPar(baseline.StateType(s)) {
			key := types.Canon(c)
			if !seen[key] {
				seen[key] = true
				comps = append(comps, c)
			}
		}
	}

	for trial := 0; trial < 4; trial++ {
		sem, init := philosophersFixture(3)
		sem.Cache = typelts.NewCache(sem.Env, sem.WitnessOnly)
		in := sem.Cache.Interner()
		switch trial {
		case 0: // reversed
			for i := len(comps) - 1; i >= 0; i-- {
				in.Intern(comps[i])
			}
		case 1: // rotated
			for i := range comps {
				in.Intern(comps[(i+len(comps)/2)%len(comps)])
			}
		case 2: // interleaved from both ends
			for i, j := 0, len(comps)-1; i <= j; i, j = i+1, j-1 {
				in.Intern(comps[j])
				in.Intern(comps[i])
			}
		case 3: // forward (control)
			for i := range comps {
				in.Intern(comps[i])
			}
		}
		m, err := Explore(sem, init, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := partition(m, nil); got != wantID {
			t.Errorf("trial %d: identity partition depends on interner ID order", trial)
		}
		if got := partition(m, coarse(m)); got != wantCoarse {
			t.Errorf("trial %d: coarse partition depends on interner ID order", trial)
		}
	}
}

// TestRefineRepeatedRunsIdentical guards against any hidden
// nondeterminism (map iteration, allocation addresses) inside one
// process: repeated refinements of one LTS must be byte-identical.
func TestRefineRepeatedRunsIdentical(t *testing.T) {
	sem, init := philosophersFixture(4)
	m, err := Explore(sem, init, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refineCSR(m.Len(), m.Out)
	for i := 0; i < 5; i++ {
		if got, _ := refineCSR(m.Len(), m.Out); !slices.Equal(got, want) {
			t.Fatalf("run %d: partition differs from first run", i)
		}
	}
}
