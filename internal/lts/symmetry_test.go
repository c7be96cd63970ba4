package lts

import (
	"fmt"
	"testing"

	"effpi/internal/typelts"
	"effpi/internal/types"
)

// pairsFixture builds n independent ping-pong pairs (the Fig. 9
// "Ping-pong" benchmark shape): pair i exchanges on zi/yi, so the pairs
// are fully interchangeable and the bundle classes are maximal. The
// responsive variant passes the reply channel (Ex. 2.2), exercising
// payload-variable renaming in the orbit map.
func pairsFixture(n int, responsive bool) (*typelts.Semantics, types.Type) {
	env := types.NewEnv()
	var comps []types.Type
	str := types.Str{}
	for i := 1; i <= n; i++ {
		z := fmt.Sprintf("z%d", i)
		y := fmt.Sprintf("y%d", i)
		if responsive {
			env = env.MustExtend(z, types.ChanIO{Elem: types.ChanO{Elem: str}})
			env = env.MustExtend(y, types.ChanIO{Elem: str})
			pinger := types.Out{Ch: tv(z), Payload: tv(y),
				Cont: types.Thunk(types.In{Ch: tv(y), Cont: types.Pi{Var: "r", Dom: str, Cod: types.Nil{}}})}
			ponger := types.In{Ch: tv(z), Cont: types.Pi{Var: "replyTo", Dom: types.ChanO{Elem: str},
				Cod: types.Out{Ch: tv("replyTo"), Payload: str, Cont: types.Thunk(types.Nil{})}}}
			comps = append(comps, pinger, ponger)
		} else {
			env = env.MustExtend(z, types.ChanIO{Elem: str})
			env = env.MustExtend(y, types.ChanIO{Elem: str})
			pinger := types.Out{Ch: tv(z), Payload: str,
				Cont: types.Thunk(types.In{Ch: tv(y), Cont: types.Pi{Var: "r", Dom: str, Cod: types.Nil{}}})}
			ponger := types.In{Ch: tv(z), Cont: types.Pi{Var: "s", Dom: str,
				Cod: types.Out{Ch: tv(y), Payload: str, Cont: types.Thunk(types.Nil{})}}}
			comps = append(comps, pinger, ponger)
		}
	}
	sem := &typelts.Semantics{Env: env, Observable: map[string]bool{}, WitnessOnly: true}
	sem.Cache = typelts.NewCache(env, true)
	return sem, types.ParOf(comps...)
}

func TestDetectSymmetryPingPong(t *testing.T) {
	for _, responsive := range []bool{false, true} {
		sem, t0 := pairsFixture(4, responsive)
		sym := DetectSymmetry(sem.Cache, t0, []string{"z1", "y1"})
		if sym == nil {
			t.Fatalf("responsive=%v: no symmetry detected on 4 interchangeable pairs", responsive)
		}
		// Pair 1 is pinned (its bundle frozen), pairs 2–4 form one class.
		if got := sym.NumBundles(); got != 3 {
			t.Errorf("responsive=%v: bundles = %d, want 3 (pair 1 pinned)", responsive, got)
		}
		if got := sym.NumClasses(); got != 1 {
			t.Errorf("responsive=%v: classes = %d, want 1", responsive, got)
		}
	}
}

func TestDetectSymmetryDegenerate(t *testing.T) {
	// All components share every channel: a single bundle, no class.
	env := types.EnvOf("a", types.ChanIO{Elem: types.Str{}}, "b", types.ChanIO{Elem: types.Str{}})
	cache := typelts.NewCache(env, true)
	shared := types.ParOf(
		types.Out{Ch: tv("a"), Payload: types.Str{}, Cont: types.Thunk(tvIn("b"))},
		types.In{Ch: tv("a"), Cont: types.Pi{Var: "x", Dom: types.Str{}, Cod: types.Out{Ch: tv("b"), Payload: types.Str{}, Cont: types.Thunk(types.Nil{})}}},
	)
	if DetectSymmetry(cache, shared, nil) != nil {
		t.Error("single-bundle system must have no symmetry")
	}

	// Everything pinned: all bundles frozen.
	sem, t0 := pairsFixture(3, false)
	if DetectSymmetry(sem.Cache, t0, []string{"z1", "y1", "z2", "y2", "z3", "y3"}) != nil {
		t.Error("fully pinned system must have no symmetry")
	}

	// A non-witness-only cache must refuse detection outright.
	if DetectSymmetry(typelts.NewCache(sem.Env, false), t0, nil) != nil {
		t.Error("detection must require a witness-only cache")
	}

	// A fork ring, uniform or fixed, fuses into one bundle: no group.
	for _, fixed := range []bool{false, true} {
		semR, tR := ringFixture(5, fixed)
		if DetectSymmetry(semR.Cache, tR, nil) != nil {
			t.Errorf("fixed=%v: a ring must have no symmetry", fixed)
		}
	}
}

func tvIn(ch string) types.Type {
	return types.In{Ch: tv(ch), Cont: types.Pi{Var: "x", Dom: types.Str{}, Cod: types.Nil{}}}
}

// symFingerprint extends the LTS fingerprint with the symmetry side
// arrays — edge permutations, orbit sizes, root permutation — the
// determinism contract of the symmetric explorer.
func symFingerprint(m *LTS) string {
	out := ltsFingerprint(m)
	if m.Sym == nil {
		return out
	}
	out += fmt.Sprintf("rootPerm=%d orbitSizes=%v\n", m.Sym.RootPerm, m.Sym.OrbitSizes)
	for s := 0; s < m.Len(); s++ {
		for k := range m.Out(s) {
			out += fmt.Sprintf("p %d %d %d\n", s, k, m.EdgePerm(s, k))
		}
	}
	return out
}

// TestSymmetricExploreCollapsesAndCovers is the core soundness check of
// the orbit map: the symmetric exploration visits far fewer states, yet
// its orbit sizes account for exactly the concrete reachable set.
func TestSymmetricExploreCollapsesAndCovers(t *testing.T) {
	for _, responsive := range []bool{false, true} {
		sem, t0 := pairsFixture(4, responsive)
		full, err := Explore(sem, t0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sym := DetectSymmetry(sem.Cache, t0, []string{"z1", "y1"})
		if sym == nil {
			t.Fatal("no symmetry detected")
		}
		red, err := Explore(sem, t0, Options{Symmetry: sym})
		if err != nil {
			t.Fatal(err)
		}
		if red.Sym == nil {
			t.Fatal("symmetric exploration did not record SymInfo")
		}
		if red.Len() >= full.Len() {
			t.Errorf("responsive=%v: symmetric exploration has %d states, full has %d — no collapse",
				responsive, red.Len(), full.Len())
		}
		if got, want := red.Covered(), int64(full.Len()); got != want {
			t.Errorf("responsive=%v: covered = %d, want %d (orbit sizes must tile the concrete space)",
				responsive, got, want)
		}
		if full.Covered() != int64(full.Len()) {
			t.Error("plain exploration must cover exactly its own states")
		}
	}
}

// TestSymmetricExploreDeterministic runs symmetric explorations at once
// over one shared cache, each detecting its own group as the batch
// executor's workers do: states, labels, CSR arrays, edge permutations
// and orbit sizes must match a lone exploration byte for byte.
func TestSymmetricExploreDeterministic(t *testing.T) {
	pinned := []string{"z1", "y1"}
	sem, t0 := pairsFixture(4, true)
	sym := DetectSymmetry(sem.Cache, t0, pinned)
	if sym == nil {
		t.Fatal("no symmetry detected")
	}
	lone, err := Explore(sem, t0, Options{Symmetry: sym})
	if err != nil {
		t.Fatal(err)
	}
	want := symFingerprint(lone)
	sem2, t2 := pairsFixture(4, true)
	opts := func(s *typelts.Semantics) Options { return Options{Symmetry: DetectSymmetry(s.Cache, t2, pinned)} }
	for i, got := range exploreConcurrently(t, onSharedCache(sem2, 4), t2, opts, symFingerprint) {
		if got != want {
			t.Fatalf("exploration %d: symmetric fingerprint differs from a lone exploration", i)
		}
	}
}

// TestSymmetricExploreHostileInternOrder pre-interns the reachable
// components in adversarial orders before exploring, so interner ID
// values differ wildly between runs — the orbit map (whose canonical
// order is defined by first-encounter ranks of abstract shapes, never
// interner IDs) must still produce the byte-identical LTS.
func TestSymmetricExploreHostileInternOrder(t *testing.T) {
	sem, t0 := pairsFixture(3, true)
	symBase := DetectSymmetry(sem.Cache, t0, []string{"z1", "y1"})
	baseline, err := Explore(sem, t0, Options{Symmetry: symBase})
	if err != nil {
		t.Fatal(err)
	}
	want := symFingerprint(baseline)

	// Gather the concrete component population from a plain exploration.
	semFull, tFull := pairsFixture(3, true)
	full, err := Explore(semFull, tFull, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var comps []types.Type
	seen := map[string]bool{}
	for s := range full.Len() {
		for _, c := range types.FlattenPar(full.StateType(s)) {
			key := types.Canon(c)
			if !seen[key] {
				seen[key] = true
				comps = append(comps, c)
			}
		}
	}

	for trial := 0; trial < 3; trial++ {
		sem2, t2 := pairsFixture(3, true)
		in := sem2.Cache.Interner()
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
		}
		sym := DetectSymmetry(sem2.Cache, t2, []string{"z1", "y1"})
		m, err := Explore(sem2, t2, Options{Symmetry: sym})
		if err != nil {
			t.Fatal(err)
		}
		if got := symFingerprint(m); got != want {
			t.Fatalf("trial %d: symmetric fingerprint differs under hostile intern order", trial)
		}
	}
}

// ringFixture builds an n-philosopher dining ring over fork channels
// f0..f(n-1): each fork is offered and retaken on its own channel, each
// philosopher takes its two neighbouring forks in ring order (the
// uniform, deadlock-prone variant). fixed=true swaps philosopher 0's
// fork order, the classic deadlock fix.
func ringFixture(n int, fixed bool) (*typelts.Semantics, types.Type) {
	env := types.NewEnv()
	unit := types.Unit{}
	forks := make([]string, n)
	for i := range forks {
		forks[i] = fmt.Sprintf("f%d", i)
		env = env.MustExtend(forks[i], types.ChanIO{Elem: unit})
	}
	rout := func(ch string, cont types.Type) types.Type {
		return types.Out{Ch: tv(ch), Payload: unit, Cont: types.Thunk(cont)}
	}
	rin := func(ch, v string, cont types.Type) types.Type {
		return types.In{Ch: tv(ch), Cont: types.Pi{Var: v, Dom: unit, Cod: cont}}
	}
	var comps []types.Type
	for i := 0; i < n; i++ {
		comps = append(comps, types.Rec{Var: "t",
			Body: rout(forks[i], rin(forks[i], "u", types.RecVar{Name: "t"}))})
	}
	for i := 0; i < n; i++ {
		first, second := forks[i], forks[(i+1)%n]
		if fixed && i == 0 {
			first, second = second, first
		}
		comps = append(comps, types.Rec{Var: "t",
			Body: rin(first, "u", rin(second, "u2",
				rout(first, rout(second, types.RecVar{Name: "t"}))))})
	}
	sem := &typelts.Semantics{Env: env, Observable: map[string]bool{}, WitnessOnly: true}
	sem.Cache = typelts.NewCache(env, true)
	return sem, types.ParOf(comps...)
}

// TestDetectSymmetryMixed puts a uniform ring alongside interchangeable
// ping-pong pairs: the pairs form one class, the ring stays fixed, and
// the quotient still tiles the concrete space.
func TestDetectSymmetryMixed(t *testing.T) {
	buildMixed := func() (*typelts.Semantics, types.Type) {
		semR, tR := ringFixture(4, false)
		semP, tP := pairsFixture(3, false)
		env := semR.Env
		for _, n := range semP.Env.Names() {
			bind, _ := semP.Env.Lookup(n)
			env = env.MustExtend(n, bind)
		}
		sem := &typelts.Semantics{Env: env, Observable: map[string]bool{}, WitnessOnly: true}
		sem.Cache = typelts.NewCache(env, true)
		return sem, types.ParOf(append(types.FlattenPar(tR), types.FlattenPar(tP)...)...)
	}
	sem, t0 := buildMixed()
	sym := DetectSymmetry(sem.Cache, t0, nil)
	if sym == nil {
		t.Fatal("no symmetry detected on ring + pairs")
	}
	if got := sym.NumClasses(); got != 1 {
		t.Errorf("classes = %d, want 1 (the three pairs)", got)
	}
	if got := sym.NumBundles(); got != 3 {
		t.Errorf("bundles = %d, want 3 (the ring is not permuted)", got)
	}
	full, err := Explore(sem, t0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sem2, t2 := buildMixed()
	sym2 := DetectSymmetry(sem2.Cache, t2, nil)
	red, err := Explore(sem2, t2, Options{Symmetry: sym2})
	if err != nil {
		t.Fatal(err)
	}
	if red.Len() >= full.Len() {
		t.Errorf("mixed exploration has %d states, full has %d — no collapse", red.Len(), full.Len())
	}
	if got, want := red.Covered(), int64(full.Len()); got != want {
		t.Errorf("covered = %d, want %d (orbit sizes must tile the space)", got, want)
	}
}

// TestSymmetryPermOps checks the permutation algebra the witness lift
// composes: inverse and composition round-trip both component multisets
// and labels.
func TestSymmetryPermOps(t *testing.T) {
	sem, t0 := pairsFixture(4, true)
	sym := DetectSymmetry(sem.Cache, t0, []string{"z1", "y1"})
	m, err := Explore(sem, t0, Options{Symmetry: sym})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < m.Len(); s++ {
		for k, e := range m.Out(s) {
			p := m.EdgePerm(s, k)
			inv := sym.Invert(p)
			if got := sym.Compose(p, inv); got != 0 {
				t.Fatalf("p∘p⁻¹ = perm %d, want identity", got)
			}
			// Un-permuting the canonical destination must give a real raw
			// successor of s's representative: one of the uncanonicalised
			// splice results.
			dst := m.StateComps(int(e.Dst))
			raw, ok := sym.PermuteComps(inv, dst)
			if !ok {
				t.Fatalf("edge %d/%d: destination components cannot be un-permuted", s, k)
			}
			_ = raw
			// Labels must round-trip too.
			lab := m.Labels[e.Label]
			back := sym.PermuteLabel(p, sym.PermuteLabel(inv, lab))
			if back.Key() != lab.Key() {
				t.Fatalf("label %s does not round-trip through perm %d (got %s)", lab.Key(), p, back.Key())
			}
		}
	}
}
