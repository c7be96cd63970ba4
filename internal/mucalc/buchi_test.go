package mucalc

import (
	"testing"

	"effpi/internal/lts"
	"effpi/internal/typelts"
)

func TestTranslateSmokes(t *testing.T) {
	a := set("a")
	b := set("b")
	formulas := []Formula{
		True{},
		Prop{Set: a},
		Box(Prop{Set: a}),
		Diamond(Prop{Set: b}),
		Until{L: Prop{Set: a}, R: Prop{Set: b}},
		Release{L: Prop{Set: a}, R: Prop{Set: b}},
		And{L: Box(Prop{Set: a}), R: Diamond(Prop{Set: b})},
		Box(Implies(Prop{Set: a}, Next{F: Diamond(Prop{Set: b})})),
	}
	for _, f := range formulas {
		ba := Translate(f)
		if ba.Len() == 0 && len(ba.Init) == 0 {
			// The empty automaton is only right for ⊥.
			t.Errorf("Translate(%s) produced an empty automaton", f)
		}
	}
	// ⊥ accepts nothing.
	ba := Translate(False{})
	if len(ba.Init) != 0 {
		t.Errorf("Translate(⊥) must have no initial states, got %d", len(ba.Init))
	}
}

// TestMultipleUntilsDegeneralization: a conjunction of two eventualities
// requires the counter construction to cycle through both acceptance
// sets. The run must satisfy both; each single one is insufficient.
func TestMultipleUntils(t *testing.T) {
	// 0 --a--> 1 --b--> 2 --c--> 0 : the run cycles a b c a b c ...
	m := mkLTS(3, map[int][]lts.AdjEdge{
		0: {edge(lab("a"), 1)},
		1: {edge(lab("b"), 2)},
		2: {edge(lab("c"), 0)},
	})
	phi := And{
		L: Box(Diamond(Prop{Set: set("a")})),
		R: Box(Diamond(Prop{Set: set("b")})),
	}
	if r := Check(m, phi); !r.Holds {
		t.Errorf("□♢a ∧ □♢b must hold on (abc)^ω: %+v", r.Counterexample)
	}
	phi2 := And{
		L: Box(Diamond(Prop{Set: set("a")})),
		R: Box(Diamond(Prop{Set: set("d")})),
	}
	if r := Check(m, phi2); r.Holds {
		t.Error("□♢a ∧ □♢d must fail on (abc)^ω")
	}
	// Three-way conjunction exercises k=3 counters.
	phi3 := And{L: phi, R: Box(Diamond(Prop{Set: set("c")}))}
	if r := Check(m, phi3); !r.Holds {
		t.Errorf("□♢a ∧ □♢b ∧ □♢c must hold on (abc)^ω: %+v", r.Counterexample)
	}
}

func TestNestedUntil(t *testing.T) {
	// (a U (b U c)): a's until b's until c.
	m := mkLTS(3, map[int][]lts.AdjEdge{
		0: {edge(lab("a"), 1)},
		1: {edge(lab("b"), 2)},
		2: {edge(lab("c"), 2)},
	})
	phi := Until{L: Prop{Set: set("a")}, R: Until{L: Prop{Set: set("b")}, R: Prop{Set: set("c")}}}
	if r := Oracle(m, phi); !r.Holds {
		t.Errorf("a U (b U c) must hold on a b c^ω: %+v", r.Counterexample)
	}
}

func TestActionSetHelpers(t *testing.T) {
	a := lab("a")
	done := typelts.Done{}
	tau := typelts.TauChoice{}

	if !AnyAction().Contains(a) || !AnyAction().Contains(done) {
		t.Error("AnyAction must contain everything")
	}
	if !TauActions().Contains(tau) || TauActions().Contains(a) {
		t.Error("TauActions wrong")
	}
	if !DoneActions().Contains(done) || DoneActions().Contains(a) {
		t.Error("DoneActions wrong")
	}
	u := UnionSet(set("a"), set("b"))
	if !u.Contains(lab("a")) || !u.Contains(lab("b")) || u.Contains(lab("c")) {
		t.Error("UnionSet wrong")
	}
	ls := LabelSet("x", a)
	if !ls.Contains(lab("a")) || ls.Contains(lab("b")) {
		t.Error("LabelSet wrong")
	}
}

func TestCheckReportsEffort(t *testing.T) {
	m := mkLTS(2, map[int][]lts.AdjEdge{
		0: {edge(lab("a"), 1)},
		1: {edge(lab("b"), 1)},
	})
	r := Check(m, Box(Prop{Set: set("a", "b")}))
	if r.ProductStates <= 0 {
		t.Error("product state count must be reported")
	}
	if r.AutomatonStates <= 0 {
		t.Error("automaton state count must be reported")
	}
}

func TestVacuousBoxOnDeadEndFreeLTS(t *testing.T) {
	// □⊥ fails on any LTS with a run; ♢⊤ holds.
	m := mkLTS(1, map[int][]lts.AdjEdge{0: {edge(lab("a"), 0)}})
	if r := Check(m, Box(False{})); r.Holds {
		t.Error("□⊥ cannot hold")
	}
	if r := Oracle(m, Diamond(True{})); !r.Holds {
		t.Error("♢⊤ must hold")
	}
	if r := Check(m, True{}); !r.Holds {
		t.Error("⊤ must hold")
	}
	if r := Check(m, False{}); r.Holds {
		t.Error("⊥ cannot hold")
	}
}

func TestSimplify(t *testing.T) {
	a := Prop{Set: set("a")}
	empty := LabelSet("∅")
	cases := []struct {
		in   Formula
		want string
	}{
		{And{L: True{}, R: a}, a.Key()},
		{And{L: a, R: False{}}, False{}.Key()},
		{Or{L: False{}, R: a}, a.Key()},
		{Or{L: a, R: True{}}, True{}.Key()},
		{Not{F: Not{F: a}}, a.Key()},
		{Next{F: True{}}, True{}.Key()},
		{Until{L: a, R: False{}}, False{}.Key()},
		{Until{L: False{}, R: a}, a.Key()},
		{Release{L: a, R: True{}}, True{}.Key()},
		{Prop{Set: empty}, False{}.Key()},
		{NegProp{Set: empty}, True{}.Key()},
		{Box(NegProp{Set: empty}), True{}.Key()},
		{And{L: a, R: a}, a.Key()},
	}
	for _, c := range cases {
		if got := Simplify(c.in); got.Key() != c.want {
			t.Errorf("Simplify(%s) = %s, want key %s", c.in, got, c.want)
		}
	}
}

// TestSimplifyPreservesVerdicts: simplified and raw formulas agree on a
// battery of formulas and a small LTS.
func TestSimplifyPreservesVerdicts(t *testing.T) {
	m := mkLTS(2, map[int][]lts.AdjEdge{
		0: {edge(lab("a"), 1), edge(lab("b"), 0)},
		1: {edge(lab("c"), 0)},
	})
	formulas := []Formula{
		Box(Prop{Set: set("a", "b", "c")}),
		And{L: True{}, R: Box(Prop{Set: set("a", "b", "c")})},
		Or{L: Diamond(Prop{Set: set("a")}), R: False{}},
		Until{L: NegProp{Set: LabelSet("∅")}, R: Prop{Set: set("c")}},
		Box(Implies(Prop{Set: set("a")}, Next{F: Prop{Set: set("c")}})),
	}
	for _, f := range formulas {
		raw := Oracle(m, f).Holds
		// The oracle simplifies; compare against translating the raw
		// formula directly.
		ba := Translate(Not{F: f})
		p := newProduct(LTSModel(m), ba)
		trace, _ := p.findAcceptingLasso()
		if raw != (trace == nil) {
			t.Errorf("Simplify changed the verdict of %s", f)
		}
	}
}
