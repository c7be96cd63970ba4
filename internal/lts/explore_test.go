package lts

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"effpi/internal/typelts"
	"effpi/internal/types"
)

// exploreFixtures builds a few structurally different systems: channel
// passing (ping-pong), unions (payment-like choice), deadlock
// completion, and a token ring — small enough for -race, varied enough
// to exercise every proposal kind.
func exploreFixtures() []struct {
	name string
	sem  func() *typelts.Semantics
	init types.Type
} {
	pp := func() (*typelts.Semantics, types.Type) { return pingPong() }

	choiceEnv := types.EnvOf(
		"m", types.ChanIO{Elem: types.Str{}},
		"a", types.ChanIO{Elem: types.Str{}},
	)
	choice := types.Par{
		L: types.Rec{Var: "t", Body: types.In{Ch: tv("m"), Cont: types.Pi{Var: "p", Dom: types.Str{},
			Cod: types.Union{
				L: types.Out{Ch: tv("a"), Payload: types.Str{}, Cont: types.Thunk(types.RecVar{Name: "t"})},
				R: types.RecVar{Name: "t"},
			}}}},
		R: types.Par{
			L: types.Rec{Var: "t", Body: types.Out{Ch: tv("m"), Payload: types.Str{},
				Cont: types.Thunk(types.RecVar{Name: "t"})}},
			R: types.Rec{Var: "t", Body: types.In{Ch: tv("a"), Cont: types.Pi{Var: "x", Dom: types.Str{},
				Cod: types.RecVar{Name: "t"}}}},
		},
	}

	stuckEnv := types.EnvOf("x", types.ChanIO{Elem: types.Int{}})
	stuck := types.Out{Ch: tv("x"), Payload: types.Int{}, Cont: types.Thunk(types.Nil{})}

	ringEnv := types.EnvOf(
		"c0", types.ChanIO{Elem: types.ChanIO{Elem: types.Unit{}}},
		"c1", types.ChanIO{Elem: types.ChanIO{Elem: types.Unit{}}},
		"c2", types.ChanIO{Elem: types.ChanIO{Elem: types.Unit{}}},
		"tok", types.ChanIO{Elem: types.Unit{}},
	)
	member := func(in, out string) types.Type {
		return types.Rec{Var: "t", Body: types.In{Ch: tv(in),
			Cont: types.Pi{Var: "z", Dom: types.ChanIO{Elem: types.Unit{}},
				Cod: types.Out{Ch: tv(out), Payload: tv("z"), Cont: types.Thunk(types.RecVar{Name: "t"})}}}}
	}
	ring := types.ParOf(
		types.Out{Ch: tv("c1"), Payload: tv("tok"), Cont: types.Thunk(member("c0", "c1"))},
		member("c1", "c2"),
		member("c2", "c0"),
	)

	return []struct {
		name string
		sem  func() *typelts.Semantics
		init types.Type
	}{
		{"pingpong", func() *typelts.Semantics { s, _ := pp(); return s }, func() types.Type { _, t := pp(); return t }()},
		{"choice", func() *typelts.Semantics {
			return &typelts.Semantics{Env: choiceEnv, Observable: map[string]bool{}, WitnessOnly: true}
		}, choice},
		{"stuck", func() *typelts.Semantics {
			return &typelts.Semantics{Env: stuckEnv, Observable: map[string]bool{}}
		}, stuck},
		{"ring", func() *typelts.Semantics {
			return &typelts.Semantics{Env: ringEnv, Observable: map[string]bool{}, WitnessOnly: true}
		}, ring},
	}
}

// ltsFingerprint renders the determinism-relevant content of an LTS:
// state order (by canonical form), dense alphabet order (by label key),
// and the raw CSR arrays. Two LTSes with equal fingerprints are the same
// transition system with the same numbering.
func ltsFingerprint(m *LTS) string {
	out := fmt.Sprintf("initial=%d truncated=%v\n", m.Initial, m.Truncated)
	for i := range m.Len() {
		out += fmt.Sprintf("S%d %s\n", i, types.Canon(m.StateType(i)))
	}
	for i, l := range m.Labels {
		out += fmt.Sprintf("L%d %s\n", i, l.Key())
	}
	out += fmt.Sprintf("start=%v\n", m.start)
	for _, e := range m.edges {
		out += fmt.Sprintf("e %d %d\n", e.Label, e.Dst)
	}
	return out
}

// TestConcurrentExplorationsShareOneCache runs explorations under
// different Y-limitations at once over one shared cache — the batch
// executor's pattern — and checks each result against a lone exploration
// on a fresh cache. Run under -race this exercises the lock-striped
// cache end to end.
func TestConcurrentExplorationsShareOneCache(t *testing.T) {
	env := types.EnvOf(
		"m", types.ChanIO{Elem: types.Str{}},
		"a", types.ChanIO{Elem: types.Str{}},
	)
	init := types.Par{
		L: types.Rec{Var: "t", Body: types.In{Ch: tv("m"), Cont: types.Pi{Var: "p", Dom: types.Str{},
			Cod: types.Out{Ch: tv("a"), Payload: types.Str{}, Cont: types.Thunk(types.RecVar{Name: "t"})}}}},
		R: types.Par{
			L: types.Rec{Var: "t", Body: types.Out{Ch: tv("m"), Payload: types.Str{}, Cont: types.Thunk(types.RecVar{Name: "t"})}},
			R: types.Rec{Var: "t", Body: types.In{Ch: tv("a"), Cont: types.Pi{Var: "x", Dom: types.Str{}, Cod: types.RecVar{Name: "t"}}}},
		},
	}
	limitations := []map[string]bool{
		{},
		{"m": true},
		{"a": true},
		{"m": true, "a": true},
	}

	// Lone baselines, one fresh cache each.
	want := make([]string, len(limitations))
	for i, obs := range limitations {
		sem := &typelts.Semantics{Env: env, Observable: obs, WitnessOnly: true}
		m, err := Explore(sem, init, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ltsFingerprint(m)
	}

	shared := typelts.NewCache(env, true)
	sems := make([]*typelts.Semantics, len(limitations))
	for i, obs := range limitations {
		sems[i] = &typelts.Semantics{Env: env, Observable: obs, WitnessOnly: true, Cache: shared}
	}
	got := exploreConcurrently(t, sems, init, func(*typelts.Semantics) Options { return Options{} }, ltsFingerprint)
	for i := range limitations {
		if got[i] != want[i] {
			t.Errorf("limitation %d: shared-cache LTS differs from a lone exploration\n--- lone ---\n%s--- shared ---\n%s", i, want[i], got[i])
		}
	}
}

// onSharedCache returns n semantics like base over one fresh cache, one
// for each goroutine of exploreConcurrently.
func onSharedCache(base *typelts.Semantics, n int) []*typelts.Semantics {
	cache := typelts.NewCache(base.Env, base.WitnessOnly)
	sems := make([]*typelts.Semantics, n)
	for i := range sems {
		sems[i] = &typelts.Semantics{Env: base.Env, Observable: base.Observable, WitnessOnly: base.WitnessOnly, Cache: cache}
	}
	return sems
}

// exploreConcurrently explores init once per semantics, all at once and
// one goroutine each, the way the batch executor runs the explorations of
// one batch, and returns each LTS's fingerprint fp in semantics order.
// opts builds each exploration's options from its semantics (a symmetric
// exploration detects its group on the semantics' cache).
func exploreConcurrently(t *testing.T, sems []*typelts.Semantics, init types.Type, opts func(*typelts.Semantics) Options, fp func(*LTS) string) []string {
	t.Helper()
	got := make([]string, len(sems))
	errs := make([]error, len(sems))
	var wg sync.WaitGroup
	for i, sem := range sems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := Explore(sem, init, opts(sem))
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = fp(m)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("exploration %d: %v", i, err)
		}
	}
	return got
}

// philosophersFixture builds an n-philosopher / n-fork system inline
// (the systems package sits above lts in the import graph). Its states
// hold many distinct components, which makes it the fixture that
// exercises rank-based (ID-order-independent) multiset ordering.
func philosophersFixture(n int) (*typelts.Semantics, types.Type) {
	unit := types.Unit{}
	env := types.NewEnv()
	forks := make([]string, n)
	for i := range forks {
		forks[i] = fmt.Sprintf("f%d", i)
		env = env.MustExtend(forks[i], types.ChanIO{Elem: unit})
	}
	out := func(ch string, cont types.Type) types.Type {
		return types.Out{Ch: tv(ch), Payload: unit, Cont: types.Thunk(cont)}
	}
	in := func(ch, v string, cont types.Type) types.Type {
		return types.In{Ch: tv(ch), Cont: types.Pi{Var: v, Dom: unit, Cod: cont}}
	}
	var comps []types.Type
	for i := 0; i < n; i++ {
		comps = append(comps, types.Rec{Var: "t", Body: out(forks[i], in(forks[i], "u", types.RecVar{Name: "t"}))})
	}
	for i := 0; i < n; i++ {
		first, second := forks[i], forks[(i+1)%n]
		comps = append(comps, types.Rec{Var: "t", Body: in(first, "u", in(second, "u2",
			out(first, out(second, types.RecVar{Name: "t"}))))})
	}
	sem := &typelts.Semantics{Env: env, Observable: map[string]bool{}, WitnessOnly: true}
	return sem, types.ParOf(comps...)
}

// TestExploreIndependentOfInternOrder attacks the determinism guarantee
// directly: it pre-interns the system's component types into the shared
// cache in several adversarial orders (reversed, rotated) before
// exploring, so the interner's ID values — and hence any ID-value-based
// ordering — differ wildly between runs. The explored LTS must be
// identical regardless: multiset iteration order is builder-local
// encounter rank, not interner ID.
func TestExploreIndependentOfInternOrder(t *testing.T) {
	baselineSem, init := philosophersFixture(3)
	baseline, err := Explore(baselineSem, init, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := ltsFingerprint(baseline)

	// Collect every distinct state component the baseline saw, as trees.
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
	if len(comps) < 4 {
		t.Fatalf("fixture too small: %d distinct components", len(comps))
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
		if got := ltsFingerprint(m); got != want {
			t.Errorf("trial %d: LTS depends on interner ID assignment order\n--- baseline ---\n%s--- got ---\n%s", trial, want, got)
		}
	}
}

// TestAddEdgeDedupHighDegree drives one state's out-degree far past
// dedupThreshold (forcing the map path) with duplicate proposals mixed
// in, and checks the dedup semantics match the linear path: first
// occurrence kept, order preserved.
func TestAddEdgeDedupHighDegree(t *testing.T) {
	sem, t0 := pingPong()
	sem.Cache = typelts.NewCache(sem.Env, sem.WitnessOnly)
	b := newBuilder(sem, DefaultMaxStates)
	// Seed two real states so dst indices are valid.
	b.internState(sem.InternLeaves(t0), 1)
	b.beginState()
	from := int32(0)
	total := 3 * dedupThreshold
	for round := 0; round < 2; round++ { // second round: all duplicates
		for k := 0; k < total; k++ {
			lab := typelts.Output{Subject: types.Var{Name: fmt.Sprintf("v%d", k)}, Payload: types.Str{}}
			b.addEdge(from, b.internLabel(sem.Cache.LabelKeyOf(lab), lab), 0, 0, false)
		}
	}
	if got := len(b.l.edges); got != total {
		t.Fatalf("edges = %d, want %d (duplicates must be dropped above the dedup threshold)", got, total)
	}
	for k, e := range b.l.edges {
		if int(e.Label) != k {
			t.Fatalf("edge %d has label %d: insertion order must be preserved", k, e.Label)
		}
	}
}

// TestPeekSeenRegistersNothing: the cycle proviso's probe of a successor
// neither writes to the shared interner nor assigns ranks, and it finds
// exactly the states registration numbers.
func TestPeekSeenRegistersNothing(t *testing.T) {
	sem, t0 := pingPong()
	b := prepBuilder(context.Background(), sem, t0, Options{PartialOrder: &POR{}})
	in := b.sem.Cache.Interner()
	b.expandState(b.l.StateComps(0))
	if len(b.props) == 0 {
		t.Fatal("root has no proposals")
	}
	interned, ranked := in.Len(), len(b.ranks.rows)
	for _, p := range b.props {
		if _, ok := b.peekSeen(p); ok {
			t.Errorf("successor of %v seen before it was registered", p)
		}
	}
	if in.Len() != interned || len(b.ranks.rows) != ranked {
		t.Errorf("peeks grew the interner %d → %d and the ranks %d → %d, want no change", interned, in.Len(), ranked, len(b.ranks.rows))
	}
	for _, p := range b.props {
		want := b.internState(slices.Clone(b.materialise(p)), 1)
		if got, ok := b.peekSeen(p); !ok || got != want {
			t.Errorf("peek of registered successor of %v = (%d, %v), want (%d, true)", p, got, ok, want)
		}
	}
}

// TestSyncSweepPairsCopiesOfOneComponent: a component with both an
// output and an input on one channel is its own sync partner, so two
// copies of it in one state synchronise in both orders, and the sweep
// must propose both pairs, just as the k(k−1) sweep does.
func TestSyncSweepPairsCopiesOfOneComponent(t *testing.T) {
	env := types.EnvOf("c", types.ChanIO{Elem: types.Int{}})
	both := types.Rec{Var: "t", Body: types.Par{
		L: types.Out{Ch: tv("c"), Payload: types.Int{}, Cont: types.Thunk(types.Nil{})},
		R: types.In{Ch: tv("c"), Cont: types.Pi{Var: "x", Dom: types.Int{}, Cod: types.Nil{}}},
	}}
	sem := &typelts.Semantics{Env: env, Observable: map[string]bool{}, WitnessOnly: true}
	init := types.Par{L: both, R: both}
	if n := CheckExpansions(t, sem, init, Options{}, false); n.States < 2 {
		t.Fatalf("explored %d states, want the copies to move", n.States)
	}
	b := prepBuilder(context.Background(), sem, init, Options{})
	b.expandState(b.l.StateComps(0))
	pairs := map[[2]int32]bool{}
	for _, p := range b.props {
		if p.j >= 0 {
			pairs[[2]int32{p.i, p.j}] = true
		}
	}
	if !pairs[[2]int32{0, 1}] || !pairs[[2]int32{1, 0}] {
		t.Errorf("root proposes sync pairs %v, want (0, 1) and (1, 0)", pairs)
	}
}
