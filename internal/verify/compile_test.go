package verify

import (
	"slices"
	"strings"
	"testing"

	"effpi/internal/lts"
	"effpi/internal/mucalc"
	"effpi/internal/typelts"
	"effpi/internal/types"
)

// exploreLoop builds a one-channel output loop and its closed LTS.
func exploreLoop(t *testing.T) (*types.Env, *lts.LTS) {
	t.Helper()
	env := types.EnvOf("x", types.ChanIO{Elem: types.Int{}})
	loop := types.Par{
		L: types.Rec{Var: "t", Body: types.Out{Ch: types.Var{Name: "x"}, Payload: types.Int{},
			Cont: types.Thunk(types.RecVar{Name: "t"})}},
		R: types.Rec{Var: "t", Body: types.In{Ch: types.Var{Name: "x"},
			Cont: types.Pi{Var: "v", Dom: types.Int{}, Cod: types.RecVar{Name: "t"}}}},
	}
	sem := &typelts.Semantics{Env: env, Observable: map[string]bool{}, WitnessOnly: true}
	m, err := lts.Explore(sem, loop, lts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return env, m
}

func TestCompileEachKind(t *testing.T) {
	env, m := exploreLoop(t)
	for _, p := range []Property{
		{Kind: NonUsage, Channels: []string{"x"}},
		{Kind: DeadlockFree, Channels: []string{"x"}},
		{Kind: Forwarding, From: "x", To: "x"},
		{Kind: Reactive, From: "x"},
		{Kind: Responsive, From: "x"},
	} {
		phi, err := Compile(env, m, p)
		if err != nil {
			t.Errorf("Compile(%s): %v", p, err)
			continue
		}
		if phi == nil {
			t.Errorf("Compile(%s) returned nil", p)
		}
	}
	// Ev-usage has no LTL compilation (reachability check).
	if _, err := Compile(env, m, Property{Kind: EventualOutput, Channels: []string{"x"}}); err == nil {
		t.Error("Compile(ev-usage) must redirect to EvUsageHolds")
	}
}

func TestCompiledFormulasMentionUseSets(t *testing.T) {
	env, m := exploreLoop(t)
	phi, err := Compile(env, m, Property{Kind: NonUsage, Channels: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(phi.String(), "Uo(x)") {
		t.Errorf("non-usage formula should name the Def. 4.8 set: %s", phi)
	}
}

func TestUsesOnLoop(t *testing.T) {
	env, m := exploreLoop(t)
	u := NewUses(env, m)
	// The closed loop's only label is the x synchronisation, which counts
	// as both an input use and an output use of x.
	if u.set(outputUses(env, []string{"x"})).Empty() {
		t.Error("Uo(x) must include τ[x,x]")
	}
	if u.set(inputUses(env, "x")).Empty() {
		t.Error("Ui(x) must include τ[x,x]")
	}
	if !u.set(impreciseTaus(env)).Empty() {
		t.Errorf("precise synchronisations must not be in Aτ")
	}
	if u.set(exactOutputs("x")).Empty() || u.set(exactInputs("x")).Empty() {
		t.Error("exact use sets must include the synchronisation")
	}
}

func TestKindStrings(t *testing.T) {
	names := map[Kind]string{
		NonUsage: "non-usage", DeadlockFree: "deadlock-free",
		EventualOutput: "ev-usage", Forwarding: "forwarding",
		Reactive: "reactive", Responsive: "responsive",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k, want)
		}
	}
	if len(AllKinds()) != 6 {
		t.Error("AllKinds must list the six Fig. 9 columns")
	}
	p := Property{Kind: Forwarding, From: "a", To: "b"}
	if p.String() != "forwarding(a→b)" {
		t.Errorf("Property.String = %q", p)
	}
}

// compile defines each Fig. 7 action set once, as a predicate; the full
// pipeline restricts the predicates to the explored alphabet, the
// on-the-fly pipeline evaluates them per label. These tests check that
// the two forms of one schema agree over alphabets exercising every
// label shape (free inputs/outputs, precise and imprecise
// synchronisations, subtype-related subjects), and that the three
// places deciding on-the-fly eligibility agree.

// symbolicFixtures returns systems whose alphabets jointly cover the
// label shapes the sets discriminate on.
func symbolicFixtures(t *testing.T) []struct {
	name     string
	env      *types.Env
	typ      types.Type
	channels []string // probe set for Uo / io
} {
	t.Helper()
	philoEnvDl, philoDl := philosophers(3, true)
	philoEnvOk, philoOk := philosophers(3, false)

	// Open ponger (Ex. 4.11): free inputs and outputs on env vars, with
	// subtype-related subjects (z : ChanIO vs the labels' ChanI/ChanO).
	pongerEnv := types.EnvOf(
		"z", types.ChanIO{Elem: types.ChanO{Elem: types.Str{}}},
		"w", types.ChanO{Elem: types.Str{}},
	)

	// A closed composition over a literal (non-Γ) channel: its only
	// synchronisation is an imprecise τ (Aτ), the case the philosophers
	// systems never produce.
	c := types.ChanIO{Elem: types.Int{}}
	anon := types.ParOf(
		types.Out{Ch: c, Payload: types.Int{}, Cont: types.Thunk(types.Nil{})},
		types.In{Ch: c, Cont: types.Pi{Var: "x", Dom: types.Int{}, Cod: types.Nil{}}},
	)

	return []struct {
		name     string
		env      *types.Env
		typ      types.Type
		channels []string
	}{
		{"philosophers-3-deadlock", philoEnvDl, philoDl, []string{"f0", "f1"}},
		{"philosophers-3-ok", philoEnvOk, philoOk, []string{"f2"}},
		{"ponger-open", pongerEnv, pongerType(), []string{"z", "w"}},
		{"anonymous-channel", types.EnvOf("u", types.ChanO{Elem: types.Int{}}), anon, []string{"u"}},
	}
}

// TestSymbolicFixturesCoverLabelShapes fails if the fixture set stops
// producing one of the label shapes the sets discriminate on — an empty
// agreement check over a shape proves nothing.
func TestSymbolicFixturesCoverLabelShapes(t *testing.T) {
	sawInput, sawOutput, sawPrecise, sawImprecise := false, false, false, false
	for _, fx := range symbolicFixtures(t) {
		m := exploreFixture(t, fx.env, fx.typ, fx.channels)
		imprecise := impreciseTaus(fx.env)
		for _, l := range m.Alphabet() {
			switch l.(type) {
			case typelts.Input:
				sawInput = true
			case typelts.Output:
				sawOutput = true
			case typelts.Comm:
				if imprecise.Contains(l) {
					sawImprecise = true
				} else {
					sawPrecise = true
				}
			}
		}
	}
	if !sawInput || !sawOutput || !sawPrecise || !sawImprecise {
		t.Errorf("fixtures miss a label shape: input=%v output=%v precise-τ=%v imprecise-τ=%v",
			sawInput, sawOutput, sawPrecise, sawImprecise)
	}
}

// compilesOnTheFly reports whether p's formula compiles with no
// alphabet — the properties the early-exit engine and the partial-order
// filter serve.
func compilesOnTheFly(p Property) bool {
	_, err := compile(nil, nil, p)
	return err == nil
}

// exploreFixture explores a fixture with every probe observable, as the
// pipeline would for a property over its channels.
func exploreFixture(t *testing.T, env *types.Env, typ types.Type, channels []string) *lts.LTS {
	t.Helper()
	obs := map[string]bool{}
	for _, x := range channels {
		obs[x] = true
	}
	sem := &typelts.Semantics{Env: env, Observable: obs, WitnessOnly: true}
	m, err := lts.Explore(sem, typ, lts.Options{MaxStates: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCompileWithoutAlphabetMatchesCompile: for every schema that
// compiles with no alphabet, the predicate formula and the formula
// restricted to the explored alphabet print the same and give the same
// verdict on the explored LTS.
func TestCompileWithoutAlphabetMatchesCompile(t *testing.T) {
	for _, fx := range symbolicFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			m := exploreFixture(t, fx.env, fx.typ, fx.channels)
			for _, p := range []Property{
				{Kind: NonUsage, Channels: fx.channels},
				{Kind: DeadlockFree, Channels: fx.channels},
				{Kind: Reactive, From: fx.channels[0]},
			} {
				otf, err := compile(fx.env, nil, p)
				if err != nil {
					t.Fatalf("%s: compile without alphabet: %v", p, err)
				}
				full, err := Compile(fx.env, m, p)
				if err != nil {
					t.Fatalf("%s: Compile: %v", p, err)
				}
				if otf.String() != full.String() {
					t.Errorf("%s: formulas differ:\n%s\nvs\n%s", p, otf, full)
				}
				if got, want := mucalc.Check(m, otf).Holds, mucalc.Check(m, full).Holds; got != want {
					t.Errorf("%s: predicate formula says %v, alphabet formula says %v", p, got, want)
				}
			}
		})
	}
}

// TestOnTheFlyEligibilityAgrees: a property compiles with no alphabet
// exactly when it has a partial-order filter, and exactly when an
// early-exit plan gives it an exploration of its own.
func TestOnTheFlyEligibilityAgrees(t *testing.T) {
	env, sys := symPairs(2)
	props := []Property{
		{Kind: DeadlockFree, Channels: []string{"z1"}},
		{Kind: EventualOutput, Channels: []string{"z1"}},
		{Kind: Forwarding, From: "z1", To: "y1"},
		{Kind: NonUsage, Channels: []string{"z1"}},
		{Kind: Reactive, From: "z1"},
		{Kind: Responsive, From: "z1"},
	}
	for _, k := range AllKinds() {
		if !slices.ContainsFunc(props, func(p Property) bool { return p.Kind == k }) {
			t.Fatalf("no property of kind %s", k)
		}
	}
	b := planBatch(env, sys, props, Options{EarlyExit: true})
	for i, p := range props {
		_, err := compile(env, nil, p)
		compiles := err == nil
		filtered := porFilter(env, p) != nil
		own := b.of[i].early && len(b.of[i].members) == 1
		if compiles != filtered || compiles != own {
			t.Errorf("%s: compiles without alphabet=%v, porFilter=%v, own on-the-fly exploration=%v", p, compiles, filtered, own)
		}
	}
}
