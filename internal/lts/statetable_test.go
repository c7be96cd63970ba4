package lts_test

import (
	"fmt"
	"strings"
	"testing"

	"effpi/internal/lts"
	"effpi/internal/systems"
	"effpi/internal/typelts"
	"effpi/internal/types"
)

// closedSem is the verifier's closed semantics over a fresh cache.
func closedSem(s *systems.System) *typelts.Semantics {
	return &typelts.Semantics{Env: s.Env, Observable: map[string]bool{}, WitnessOnly: true, Cache: typelts.NewCache(s.Env, true)}
}

// fingerprint renders everything an exploration decides through the
// public API: state vectors and types, alphabet, edges and the symmetry
// bookkeeping.
func fingerprint(m *lts.LTS) string {
	var b strings.Builder
	fmt.Fprintf(&b, "initial=%d truncated=%v states=%d\n", m.Initial, m.Truncated, m.Len())
	for s := range m.Len() {
		fmt.Fprintf(&b, "S%d %v %s\n", s, m.StateComps(s), types.Canon(m.StateType(s)))
	}
	for i, l := range m.Labels {
		fmt.Fprintf(&b, "L%d %s\n", i, l.Key())
	}
	for s := range m.Len() {
		for k, e := range m.Out(s) {
			fmt.Fprintf(&b, "e %d %d %d %d\n", s, e.Label, e.Dst, m.EdgePerm(s, k))
		}
	}
	if m.Sym != nil {
		fmt.Fprintf(&b, "root perm %d orbits %v\n", m.Sym.RootPerm, m.Sym.OrbitSizes)
	}
	return b.String()
}

// TestExploredStatesStayOutOfTheCache: an exploration keeps its states
// in its own table, so the shared cache holds only the per-component
// memos — far fewer entries than there are states — with or without
// partial-order reduction (whose probes TestPeekSeenRegistersNothing
// pins directly).
func TestExploredStatesStayOutOfTheCache(t *testing.T) {
	for _, s := range []*systems.System{systems.PingPongPairs(8, false), systems.DiningPhilosophers(7, true)} {
		full := closedSem(s)
		m, err := lts.Explore(full, s.Type, lts.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if memos := full.Cache.Memos(); memos >= m.Len() {
			t.Errorf("%s: %d cache memos after exploring %d states, want fewer memos than states", s.Name, memos, m.Len())
		}
		red := closedSem(s)
		if _, err := lts.Explore(red, s.Type, lts.Options{PartialOrder: &lts.POR{}}); err != nil {
			t.Fatal(err)
		}
		if memos := red.Cache.Memos(); memos >= m.Len() || memos > full.Cache.Memos() {
			t.Errorf("%s: %d cache memos under POR, want fewer than the %d states and at most the full exploration's %d", s.Name, memos, m.Len(), full.Cache.Memos())
		}
	}
}

// TestStateTableCollisions forces every state vector into one bucket:
// the table then decides identity by comparing vectors alone, and every
// exploration — plain, on the orbits of interchangeable pairs and under
// partial-order reduction — must come out byte-identical.
func TestStateTableCollisions(t *testing.T) {
	pairs := systems.PingPongPairs(6, false)
	cases := []struct {
		sys  *systems.System
		opts func(*typelts.Semantics) lts.Options
	}{
		{systems.PingPongPairs(4, false), func(*typelts.Semantics) lts.Options { return lts.Options{} }},
		{pairs, func(sem *typelts.Semantics) lts.Options {
			sym := lts.DetectSymmetry(sem.Cache, pairs.Type, nil)
			if sym == nil {
				t.Fatalf("%s: no symmetry detected", pairs.Name)
			}
			return lts.Options{Symmetry: sym}
		}},
		{systems.Ring(16, 4), func(*typelts.Semantics) lts.Options { return lts.Options{PartialOrder: &lts.POR{}} }},
	}
	explore := func(s *systems.System, opts func(*typelts.Semantics) lts.Options) string {
		sem := closedSem(s)
		m, err := lts.Explore(sem, s.Type, opts(sem))
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(m)
	}
	want := make([]string, len(cases))
	for i, c := range cases {
		want[i] = explore(c.sys, c.opts)
	}
	lts.CollideStateHashes(t)
	for i, c := range cases {
		if got := explore(c.sys, c.opts); got != want[i] {
			t.Errorf("case %d (%s): exploration changed when every vector hashes alike", i, c.sys.Name)
		}
	}
}

// TestStateTypeKeepsCallersRoot: the root of an exploration that did
// not canonicalise it is the caller's own type, even when the interner
// already holds a ≡-equivalent variant of it.
func TestStateTypeKeepsCallersRoot(t *testing.T) {
	env := types.EnvOf("c", types.ChanIO{Elem: types.Int{}})
	recv := func(v string) types.Type {
		return types.In{Ch: types.Var{Name: "c"}, Cont: types.Pi{Var: v, Dom: types.Int{}, Cod: types.Nil{}}}
	}
	send := types.Out{Ch: types.Var{Name: "c"}, Payload: types.Int{}, Cont: types.Thunk(types.Nil{})}
	init := types.Par{L: send, R: recv("x")}
	variant := types.Par{L: recv("y"), R: send}
	sem := &typelts.Semantics{Env: env, Observable: map[string]bool{}, WitnessOnly: true, Cache: typelts.NewCache(env, true)}
	sem.Cache.Interner().Intern(variant)
	m, err := lts.Explore(sem, init, lts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.StateType(0); got.String() != init.String() {
		t.Errorf("StateType(0) = %s, want the caller's %s", got, init)
	}
	if m.Len() < 2 {
		t.Fatalf("want a successor state, got %d states", m.Len())
	}
}
