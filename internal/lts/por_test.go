package lts

import (
	"fmt"
	"testing"

	"effpi/internal/typelts"
	"effpi/internal/types"
)

// porAll is the property-free ample filter (no visible labels, weak
// proviso): the strongest reduction the engine supports, and the one the
// structural tests below run under — any soundness bug shows up soonest
// when the most edges are dropped.
func porAll() *POR { return &POR{} }

// stateKey/edgeKey identify states and edges independently of state
// numbering, so a reduced LTS can be compared against the full one even
// though dropping edges reorders the BFS discovery sequence.
func stateKey(m *LTS, s int) string { return types.Canon(m.StateType(s)) }
func edgeKey(m *LTS, s int, e Edge) string {
	return fmt.Sprintf("%s --%s--> %s", stateKey(m, s), m.Labels[e.Label].Key(), stateKey(m, int(e.Dst)))
}

// TestPORAmpleIsSubset is the structural soundness anchor the witness
// argument rests on: every state and every edge of the ample-reduced
// LTS is a state and edge of the full exploration — ample sets only
// ever drop transitions, never invent or rewrite them. (Completion
// self-loops are part of the contract too: they are appended after
// filtering, to the same states the full engine appends them to.)
func TestPORAmpleIsSubset(t *testing.T) {
	for _, fx := range exploreFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			full, err := Explore(fx.sem(), fx.init, Options{})
			if err != nil {
				t.Fatal(err)
			}
			red, err := Explore(fx.sem(), fx.init, Options{PartialOrder: porAll()})
			if err != nil {
				t.Fatal(err)
			}
			if red.Len() > full.Len() {
				t.Fatalf("reduced exploration has %d states, full has %d", red.Len(), full.Len())
			}
			states := map[string]bool{}
			edges := map[string]bool{}
			for s := range full.Len() {
				states[stateKey(full, s)] = true
				for _, e := range full.Out(s) {
					edges[edgeKey(full, s, e)] = true
				}
			}
			if !states[stateKey(red, red.Initial)] || stateKey(red, red.Initial) != stateKey(full, full.Initial) {
				t.Errorf("initial states differ")
			}
			for s := range red.Len() {
				if !states[stateKey(red, s)] {
					t.Errorf("reduced state %s is not a state of the full LTS", stateKey(red, s))
				}
				if len(red.Out(s)) == 0 && s < red.Len() {
					t.Errorf("reduced state %s has no outgoing edges — completion self-loops must survive", stateKey(red, s))
				}
				for _, e := range red.Out(s) {
					if !edges[edgeKey(red, s, e)] {
						t.Errorf("reduced edge %s is not an edge of the full LTS", edgeKey(red, s, e))
					}
				}
			}
		})
	}
}

// TestPORDeterministicAcrossWorkers runs reduced explorations at once
// over one shared cache, as the batch executor's workers do, and checks
// each against a lone exploration on a fresh cache byte for byte: ample
// selection reads no interner ID order, so the interleaving of the shared
// interner cannot leak into the reduced LTS.
func TestPORDeterministicAcrossWorkers(t *testing.T) {
	for _, fx := range exploreFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			lone, err := Explore(fx.sem(), fx.init, Options{PartialOrder: porAll()})
			if err != nil {
				t.Fatal(err)
			}
			want := ltsFingerprint(lone)
			opts := func(*typelts.Semantics) Options { return Options{PartialOrder: porAll()} }
			for i, got := range exploreConcurrently(t, onSharedCache(fx.sem(), 4), fx.init, opts, ltsFingerprint) {
				if got != want {
					t.Errorf("exploration %d: reduced LTS differs from a lone exploration\n--- lone ---\n%s--- shared ---\n%s", i, want, got)
				}
			}
		})
	}
}

// TestPORIncrementalMatchesExplore: driving the incremental engine in
// BFS order under the ample filter reproduces Explore's reduced LTS
// byte-for-byte — the cycle proviso's "already decided" predicate (the
// expansion map) coincides with Explore's state-number cursor
// exactly when expansion follows discovery order.
func TestPORIncrementalMatchesExplore(t *testing.T) {
	for _, fx := range exploreFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			want, err := Explore(fx.sem(), fx.init, Options{PartialOrder: porAll()})
			if err != nil {
				t.Fatal(err)
			}
			inc := NewIncremental(fx.sem(), fx.init, Options{PartialOrder: porAll()})
			for s := 0; s < inc.Len(); s++ {
				if _, err := inc.Succ(s); err != nil {
					t.Fatal(err)
				}
			}
			if got := ltsFingerprint(inc.Snapshot()); got != ltsFingerprint(want) {
				t.Errorf("BFS-driven incremental snapshot differs from Explore\n--- explore ---\n%s--- incremental ---\n%s", ltsFingerprint(want), got)
			}
		})
	}
}

// TestOutAppendDoesNotCorrupt is the regression test for the aliased
// sub-slice bug: Out used to return a plain two-index slice into the
// shared CSR edge array, so a caller appending to the result (a natural
// way to collect edges) silently overwrote the next state's first edge.
// The three-index slice forces the append to reallocate.
func TestOutAppendDoesNotCorrupt(t *testing.T) {
	for _, fx := range exploreFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			m, err := Explore(fx.sem(), fx.init, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := ltsFingerprint(m)
			for s := 0; s < m.Len(); s++ {
				es := m.Out(s)
				_ = append(es, Edge{Label: -1, Dst: -1})
			}
			if got := ltsFingerprint(m); got != want {
				t.Errorf("appending to Out's result corrupted the LTS\n--- before ---\n%s--- after ---\n%s", want, got)
			}
		})
	}
}

// TestIncrementalSuccAppendDoesNotCorrupt: the same aliasing fix for the
// incremental engine — both the cached-expansion path and the
// just-expanded return are capacity-clamped, so appends by the driving
// checker cannot clobber a neighbour's edges.
func TestIncrementalSuccAppendDoesNotCorrupt(t *testing.T) {
	for _, fx := range exploreFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			want, err := Explore(fx.sem(), fx.init, Options{})
			if err != nil {
				t.Fatal(err)
			}
			inc := NewIncremental(fx.sem(), fx.init, Options{})
			for s := 0; s < inc.Len(); s++ {
				es, err := inc.Succ(s) // just-expanded return
				if err != nil {
					t.Fatal(err)
				}
				_ = append(es, Edge{Label: -1, Dst: -1})
				es, err = inc.Succ(s) // cached path
				if err != nil {
					t.Fatal(err)
				}
				_ = append(es, Edge{Label: -1, Dst: -1})
			}
			if got := ltsFingerprint(inc.Snapshot()); got != ltsFingerprint(want) {
				t.Errorf("appending to Succ's result corrupted the explored fragment\n--- explore ---\n%s--- incremental ---\n%s", ltsFingerprint(want), got)
			}
		})
	}
}

// TestPORLivenessProviso: the strong (liveness) proviso is at least as
// conservative as the weak one — it can only keep more transitions.
func TestPORLivenessProviso(t *testing.T) {
	for _, fx := range exploreFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			weak, err := Explore(fx.sem(), fx.init, Options{PartialOrder: &POR{}})
			if err != nil {
				t.Fatal(err)
			}
			strong, err := Explore(fx.sem(), fx.init, Options{PartialOrder: &POR{Liveness: true}})
			if err != nil {
				t.Fatal(err)
			}
			if strong.Len() < weak.Len() {
				t.Errorf("strong proviso explored %d states, weak explored %d — strong must be ⊇ weak", strong.Len(), weak.Len())
			}
		})
	}
}

// TestPORVisibilityKeepsLabels: a visibility predicate that marks every
// label visible disables the reduction entirely (C2 rejects every
// candidate), reproducing the full exploration byte-for-byte — the
// degenerate end of the soundness spectrum.
func TestPORVisibilityKeepsLabels(t *testing.T) {
	for _, fx := range exploreFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			full, err := Explore(fx.sem(), fx.init, Options{})
			if err != nil {
				t.Fatal(err)
			}
			red, err := Explore(fx.sem(), fx.init, Options{PartialOrder: &POR{Visible: func(typelts.Label) bool { return true }}})
			if err != nil {
				t.Fatal(err)
			}
			if ltsFingerprint(red) != ltsFingerprint(full) {
				t.Error("all-visible filter did not reproduce the full exploration")
			}
		})
	}
}

// TestPORSymmetryPrecedence: when both exploration-time reductions are
// requested, the symmetry group claims the exploration and the ample
// filter stays disengaged — the reduced LTS equals the symmetry-only
// one, orbit bookkeeping included.
func TestPORSymmetryPrecedence(t *testing.T) {
	run := func(por *POR) *LTS {
		sem, sys := pairsFixture(3, false)
		sym := DetectSymmetry(sem.Cache, sys, nil)
		if sym == nil {
			t.Fatal("fixture has no detectable symmetry")
		}
		m, err := Explore(sem, sys, Options{Symmetry: sym, PartialOrder: por})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	symOnly, both := run(nil), run(porAll())
	if both.Sym == nil {
		t.Fatal("symmetry bookkeeping missing when both reductions were requested")
	}
	if ltsFingerprint(both) != ltsFingerprint(symOnly) {
		t.Error("requesting partial order changed the orbit exploration")
	}
}
