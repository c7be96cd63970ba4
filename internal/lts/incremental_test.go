package lts

import (
	"slices"
	"strings"
	"testing"

	"effpi/internal/typelts"
	"effpi/internal/types"
)

// TestIncrementalFullyExpandedMatchesExplore: expanding every discovered
// state in index order replays exactly Explore's BFS, so the snapshot
// must be byte-identical to Explore's LTS — state types and vectors,
// alphabet, CSR arrays.
func TestIncrementalFullyExpandedMatchesExplore(t *testing.T) {
	for _, fx := range exploreFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			full, err := Explore(fx.sem(), fx.init, Options{})
			if err != nil {
				t.Fatal(err)
			}
			inc := NewIncremental(fx.sem(), fx.init, Options{})
			for s := 0; s < inc.Len(); s++ {
				if _, err := inc.Succ(s); err != nil {
					t.Fatalf("Succ(%d): %v", s, err)
				}
			}
			snap := inc.Snapshot()
			if snap.Partial {
				t.Error("fully expanded snapshot must not be partial")
			}
			if got, want := ltsFingerprint(snap), ltsFingerprint(full); got != want {
				t.Errorf("snapshot differs from Explore\n--- explore ---\n%s--- snapshot ---\n%s", want, got)
			}
			// Both ran over fresh caches in the same order, so even the
			// component IDs agree.
			for s := range full.Len() {
				if got, want := snap.StateComps(s), full.StateComps(s); !slices.Equal(got, want) {
					t.Errorf("state %d: snapshot vector %v, Explore's %v", s, got, want)
				}
			}
			if inc.Expanded() != full.Len() {
				t.Errorf("expanded %d states, Explore found %d", inc.Expanded(), full.Len())
			}
		})
	}
}

// TestIncrementalSuccIsStable: repeated Succ calls return the same edges,
// and expansion completes edge-less states with the ✔/⊠ self-loop.
func TestIncrementalSuccIsStable(t *testing.T) {
	env := types.EnvOf("x", types.ChanIO{Elem: types.Int{}})
	stuck := types.Out{Ch: tv("x"), Payload: types.Int{}, Cont: types.Thunk(types.Nil{})}
	sem := &typelts.Semantics{Env: env, Observable: map[string]bool{}}
	inc := NewIncremental(sem, stuck, Options{})
	first, err := inc.Succ(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 {
		t.Fatalf("stuck output under closed limitation: want 1 completion edge, got %d", len(first))
	}
	if _, ok := inc.Labels()[first[0].Label].(typelts.Stuck); !ok {
		t.Errorf("completion label %v, want ⊠", inc.Labels()[first[0].Label])
	}
	again, err := inc.Succ(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(first) || again[0] != first[0] {
		t.Errorf("repeated Succ changed: %v then %v", first, again)
	}
	if inc.Expanded() != 1 {
		t.Errorf("expanded = %d after two Succ(0) calls, want 1", inc.Expanded())
	}
}

// TestIncrementalPartialSnapshot: expanding only part of the space yields
// a Partial snapshot whose unexpanded states have no edges, while the
// expanded states' edges match the full exploration (matched by state
// canon: incremental numbering follows discovery order, not BFS order).
func TestIncrementalPartialSnapshot(t *testing.T) {
	sem, init := philosophersFixture(3)
	inc := NewIncremental(sem, init, Options{})
	if _, err := inc.Succ(0); err != nil {
		t.Fatal(err)
	}
	snap := inc.Snapshot()
	if !snap.Partial {
		t.Error("snapshot with unexpanded states must be Partial")
	}
	if snap.Len() < 2 {
		t.Fatalf("expanding the root must discover successors, got %d states", snap.Len())
	}
	if len(snap.Out(0)) == 0 {
		t.Error("expanded root has no edges in the snapshot")
	}
	for s := 1; s < snap.Len(); s++ {
		if len(snap.Out(s)) != 0 {
			t.Errorf("unexpanded state %d has %d edges in the snapshot", s, len(snap.Out(s)))
		}
	}

	// The root's edges agree with the full exploration's root edges (state
	// 0 is the root in both numberings; labels compared by key, targets by
	// canonical form).
	full, err := Explore(philosophersSem(t), init, Options{})
	if err != nil {
		t.Fatal(err)
	}
	render := func(m *LTS) string {
		var b strings.Builder
		for _, e := range m.Out(0) {
			b.WriteString(m.LabelOf(e).Key())
			b.WriteString("→")
			b.WriteString(types.Canon(m.StateType(int(e.Dst))))
			b.WriteString("\n")
		}
		return b.String()
	}
	if got, want := render(snap), render(full); got != want {
		t.Errorf("root edges differ between incremental and full exploration\n--- full ---\n%s--- incremental ---\n%s", want, got)
	}
}

func philosophersSem(t *testing.T) *typelts.Semantics {
	t.Helper()
	sem, _ := philosophersFixture(3)
	return sem
}

// TestIncrementalStateBound: the bound is checked per expansion exactly
// like Explore; once exceeded the error is sticky and the
// snapshot is flagged Truncated.
func TestIncrementalStateBound(t *testing.T) {
	sem, init := philosophersFixture(3)
	inc := NewIncremental(sem, init, Options{MaxStates: 2})
	// The root may expand (bound not yet exceeded) but discovers more than
	// two states; the next expansion must fail.
	if _, err := inc.Succ(0); err != nil {
		t.Fatalf("root expansion within bound failed: %v", err)
	}
	if inc.Len() <= 2 {
		t.Skip("fixture too small to exceed the bound")
	}
	if _, err := inc.Succ(1); err == nil {
		t.Fatal("expansion past the bound must fail")
	}
	if inc.Err() == nil || !strings.Contains(inc.Err().Error(), "state bound") {
		t.Errorf("sticky error = %v, want a state-bound error", inc.Err())
	}
	// Already expanded states still serve; new expansions keep failing.
	if _, err := inc.Succ(0); err != nil {
		t.Errorf("already expanded state must still serve after the bound: %v", err)
	}
	if _, err := inc.Succ(2); err == nil {
		t.Error("expansions after the bound must keep failing")
	}
	if snap := inc.Snapshot(); !snap.Truncated || !snap.Partial {
		t.Errorf("snapshot truncated=%v partial=%v, want both true", snap.Truncated, snap.Partial)
	}
}
