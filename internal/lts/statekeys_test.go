package lts_test

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"effpi/internal/lts"
	"effpi/internal/systems"
	"effpi/internal/typelts"
	"effpi/internal/types"
)

// refLTS is what referenceExplore builds: per state its components in
// rank order and its edges, and the alphabet.
type refLTS struct {
	states [][]types.ID
	out    [][]lts.Edge
	labels []typelts.Label
}

// referenceExplore explores init breadth-first, proposing edges in
// Explore's order, with none of Explore's machinery: a state is keyed by
// its ID-sorted component vector, every pair of positions is tried for a
// synchronisation, and a successor is built and sorted for every
// proposal. Components are ranked on first encounter, as Explore ranks
// them, so the state numbering and the state vectors must be Explore's.
// It reports false when more than maxStates states are found.
func referenceExplore(sem *typelts.Semantics, init types.Type, maxStates int) (*refLTS, bool) {
	rank := map[types.ID]int{}
	order := func(ids []types.ID) {
		for _, id := range ids {
			if _, ok := rank[id]; !ok {
				rank[id] = len(rank)
			}
		}
		sort.SliceStable(ids, func(i, j int) bool { return rank[ids[i]] < rank[ids[j]] })
	}
	ref := &refLTS{}
	index := map[string]int{}
	intern := func(ids []types.ID) int {
		sorted := slices.Clone(ids)
		slices.Sort(sorted)
		key := fmt.Sprint(sorted)
		if s, ok := index[key]; ok {
			return s
		}
		index[key] = len(ref.states)
		ref.states = append(ref.states, ids)
		return len(ref.states) - 1
	}
	labelIdx := map[typelts.LabelKey]int32{}
	label := func(key typelts.LabelKey, lab typelts.Label) int32 {
		if i, ok := labelIdx[key]; ok {
			return i
		}
		labelIdx[key] = int32(len(ref.labels))
		ref.labels = append(ref.labels, lab)
		return labelIdx[key]
	}
	root := sem.InternLeaves(init)
	order(root)
	intern(root)
	for s := 0; s < len(ref.states); s++ {
		if len(ref.states) > maxStates {
			return nil, false
		}
		comps := ref.states[s]
		var out []lts.Edge
		propose := func(st *typelts.CompStep, i, j int) {
			var succ []types.ID
			for k, id := range comps {
				if k != i && k != j {
					succ = append(succ, id)
				}
			}
			succ = append(succ, st.Next...)
			order(succ)
			e := lts.Edge{Label: label(st.Key, st.Label), Dst: int32(intern(succ))}
			if !slices.Contains(out, e) {
				out = append(out, e)
			}
		}
		for i, id := range comps {
			steps := sem.Component(id).Steps
			for k := range steps {
				if sem.KeepLabel(steps[k].Label) {
					propose(&steps[k], i, -1)
				}
			}
		}
		for i, x := range comps {
			for j, y := range comps {
				if i == j {
					continue
				}
				steps := sem.SyncSteps(x, y)
				for k := range steps {
					propose(&steps[k], i, j)
				}
			}
		}
		if len(out) == 0 {
			var lab typelts.Label = typelts.Stuck{}
			if len(comps) == 0 {
				lab = typelts.Done{}
			}
			out = append(out, lts.Edge{Label: label(sem.Cache.LabelKeyOf(lab), lab), Dst: int32(s)})
		}
		ref.out = append(ref.out, out)
	}
	return ref, true
}

// sameAsReference reports the first difference between an LTS and the
// reference exploration of the same system over the same cache.
func sameAsReference(t *testing.T, m *lts.LTS, ref *refLTS) {
	t.Helper()
	if m.Len() != len(ref.states) {
		t.Fatalf("%d states, reference %d", m.Len(), len(ref.states))
	}
	for s := range m.Len() {
		if got := m.StateComps(s); !slices.Equal(got, ref.states[s]) {
			t.Fatalf("state %d: components %v, reference %v", s, got, ref.states[s])
		}
		if got := m.Out(s); !slices.Equal(got, ref.out[s]) {
			t.Fatalf("state %d: edges %v, reference %v", s, got, ref.out[s])
		}
	}
	if len(m.Labels) != len(ref.labels) {
		t.Fatalf("%d labels, reference %d", len(m.Labels), len(ref.labels))
	}
	for i, l := range m.Labels {
		if l.Key() != ref.labels[i].Key() {
			t.Fatalf("label %d is %s, reference %s", i, l.Key(), ref.labels[i].Key())
		}
	}
}

// copiesOf is a system of n copies of a component with an output and an
// input on one channel: each copy is its own sync partner, so the
// copies synchronise in every ordered pair and the states are multisets.
func copiesOf(n int) (*typelts.Semantics, types.Type) {
	env := types.EnvOf("c", types.ChanIO{Elem: types.Int{}})
	both := types.Rec{Var: "t", Body: types.Par{
		L: types.Out{Ch: types.Var{Name: "c"}, Payload: types.Int{}, Cont: types.Thunk(types.Nil{})},
		R: types.In{Ch: types.Var{Name: "c"}, Cont: types.Pi{Var: "x", Dom: types.Int{}, Cod: types.Nil{}}},
	}}
	comps := make([]types.Type, n)
	for i := range comps {
		comps[i] = both
	}
	return &typelts.Semantics{Env: env, Observable: map[string]bool{}, WitnessOnly: true, Cache: typelts.NewCache(env, true)}, types.ParOf(comps...)
}

// TestStateKeysMultiset: with two and three copies of one component a
// state holds a component several times, and the k-th copy has a rank
// of its own. The exploration must equal the reference keyed by sorted
// ID vectors — the same states, each the same multiset, and the same
// edges — also when every state hash collides.
func TestStateKeysMultiset(t *testing.T) {
	for _, collide := range []bool{false, true} {
		for _, n := range []int{2, 3} {
			if collide {
				lts.CollideStateHashes(t)
			}
			sem, init := copiesOf(n)
			m, err := lts.Explore(sem, init, lts.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ref, _ := referenceExplore(sem, init, lts.DefaultMaxStates)
			sameAsReference(t, m, ref)
			repeated := false
			for s := range m.Len() {
				v := m.StateComps(s)
				for k := 1; k < len(v); k++ {
					repeated = repeated || v[k] == v[k-1]
				}
			}
			if !repeated {
				t.Fatalf("%d copies: no state holds a component twice", n)
			}
		}
	}
}

// TestStateKeysWiden: Ring(70, 1) has 140 ranks, so the keys widen from
// one word to two at the root and to four during the exploration; the
// LTS must equal the reference's.
func TestStateKeysWiden(t *testing.T) {
	s := systems.Ring(70, 1)
	sem := closedSem(s)
	m, err := lts.Explore(sem, s.Type, lts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w := lts.KeyWords(m); w != 4 {
		t.Fatalf("keys of %d words, want 4", w)
	}
	ref, _ := referenceExplore(sem, s.Type, lts.DefaultMaxStates)
	sameAsReference(t, m, ref)
}

// TestSnapshotSurvivesWidening: a snapshot taken before the keys widen
// reads the same state vectors after the explorer has rewritten them.
func TestSnapshotSurvivesWidening(t *testing.T) {
	s := systems.Ring(70, 1)
	x := lts.NewIncremental(closedSem(s), s.Type, lts.Options{})
	if _, err := x.Succ(0); err != nil {
		t.Fatal(err)
	}
	snap := x.Snapshot()
	if w := lts.KeyWords(snap); w != 2 {
		t.Fatalf("snapshot keys of %d words, want 2", w)
	}
	before := make([][]types.ID, snap.Len())
	for st := range snap.Len() {
		before[st] = snap.StateComps(st)
	}
	for st := 0; st < x.Len(); st++ {
		if _, err := x.Succ(st); err != nil {
			t.Fatal(err)
		}
	}
	if w := lts.KeyWords(x.Snapshot()); w != 4 {
		t.Fatalf("explorer keys of %d words after the whole exploration, want 4", w)
	}
	for st, want := range before {
		if got := snap.StateComps(st); !slices.Equal(got, want) {
			t.Fatalf("state %d reads %v after the widening, %v before", st, got, want)
		}
		if got := x.StateComps(st); !slices.Equal(got, want) {
			t.Fatalf("state %d: explorer reads %v, snapshot %v", st, got, want)
		}
	}
}

// fuzzMaxStates bounds FuzzStateKeys's explorations; larger systems are
// skipped.
const fuzzMaxStates = 20000

// FuzzStateKeys: a generated system with one of its components repeated
// one to three more times explores to the reference's LTS, and an
// Incremental expanded in discovery order explores to Explore's.
func FuzzStateKeys(f *testing.F) {
	for _, seed := range []int64{0, 1, 23, 87, 167} {
		f.Add(seed, uint8(0), uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, which, extra uint8) {
		s := systems.RandomSystem(seed)
		comps := types.FlattenPar(s.Type)
		if len(comps) == 0 {
			t.Skip("no components")
		}
		c := comps[int(which)%len(comps)]
		for range 1 + int(extra)%3 {
			comps = append(comps, c)
		}
		init := types.ParOf(comps...)
		sem := closedSem(s)
		m, err := lts.Explore(sem, init, lts.Options{MaxStates: fuzzMaxStates})
		if errors.Is(err, lts.ErrStateBound) {
			t.Skipf("more than %d states", fuzzMaxStates)
		}
		if err != nil {
			t.Fatal(err)
		}
		ref, ok := referenceExplore(sem, init, fuzzMaxStates)
		if !ok {
			t.Fatalf("the reference found more than %d states, Explore %d", fuzzMaxStates, m.Len())
		}
		sameAsReference(t, m, ref)

		full, err := lts.Explore(closedSem(s), init, lts.Options{})
		if err != nil {
			t.Fatal(err)
		}
		x := lts.NewIncremental(closedSem(s), init, lts.Options{})
		for st := 0; st < x.Len(); st++ {
			if _, err := x.Succ(st); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := fingerprint(x.Snapshot()), fingerprint(full); got != want {
			t.Fatalf("incremental exploration differs from Explore\n--- Explore ---\n%s--- incremental ---\n%s", want, got)
		}
	})
}
