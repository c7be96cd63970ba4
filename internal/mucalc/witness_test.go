package mucalc

import (
	"reflect"
	"testing"

	"effpi/internal/lts"
	"effpi/internal/typelts"
)

// --- Witness shape on edge-case lassos --------------------------------------

// TestWitnessSelfLoopLasso: the smallest possible lasso. On a one-state
// a-loop, □⟨b⟩ fails with a self-loop cycle on state 0. The stem visits
// only state 0 too (the product stem may take several steps there — the
// automaton walks its own states over the one LTS self-loop) but can
// never be empty: the virtual initial product state is not accepting, so
// at least one label is consumed entering the automaton — the invariant
// Validate's shape rules lean on.
func TestWitnessSelfLoopLasso(t *testing.T) {
	m := mkLTS(1, map[int][]lts.AdjEdge{0: {edge(lab("a"), 0)}})
	r := Check(m, Box(Prop{Set: set("b")}))
	if r.Holds || r.Witness == nil {
		t.Fatal("expected a witness")
	}
	w := r.Witness
	if err := w.Validate(LTSModel(m)); err != nil {
		t.Fatalf("self-loop witness does not validate: %v", err)
	}
	if len(w.CycleLabels) != 1 || w.CycleStates[0] != 0 || w.CycleStates[1] != 0 {
		t.Errorf("self-loop lasso: cycle %v / %v, want a single a-step 0→0", w.CycleStates, w.CycleLabels)
	}
	if len(w.StemLabels) == 0 {
		t.Error("a zero-step stem cannot arise: the virtual initial product state is never accepting")
	}
	for _, s := range w.StemStates {
		if s != 0 {
			t.Errorf("self-loop stem %v must only visit state 0", w.StemStates)
		}
	}
	if w.Head() != 0 {
		t.Errorf("lasso head %d, want 0", w.Head())
	}
}

// TestWitnessCycleThroughInitial: a violation whose lasso loops back
// through the initial state. The cycle must close on the lasso head and
// include the initial state.
func TestWitnessCycleThroughInitial(t *testing.T) {
	// 0 --a--> 1 --b--> 0: the only run is (a b)^ω; □⟨a⟩ fails.
	m := mkLTS(2, map[int][]lts.AdjEdge{
		0: {edge(lab("a"), 1)},
		1: {edge(lab("b"), 0)},
	})
	r := Check(m, Box(Prop{Set: set("a")}))
	if r.Holds || r.Witness == nil {
		t.Fatal("expected a witness")
	}
	w := r.Witness
	if err := w.Validate(LTSModel(m)); err != nil {
		t.Fatalf("witness does not validate: %v", err)
	}
	visitsInitial := false
	for _, s := range w.CycleStates {
		if s == 0 {
			visitsInitial = true
		}
	}
	if !visitsInitial {
		t.Errorf("cycle %v must loop through the initial state", w.CycleStates)
	}
}

// TestWitnessConsistentWithTrace: the label projection of the witness is
// exactly the reported Counterexample.
func TestWitnessConsistentWithTrace(t *testing.T) {
	m := mkLTS(4, map[int][]lts.AdjEdge{
		0: {edge(lab("i"), 1)},
		1: {edge(lab("x"), 2)},
		2: {edge(lab("y"), 3)},
		3: {edge(lab("z"), 1)},
	})
	for _, phi := range []Formula{
		Box(Prop{Set: set("i", "x", "y")}),
		Box(Diamond(Prop{Set: set("i")})),
	} {
		r := Check(m, phi)
		if r.Holds || r.Witness == nil {
			t.Fatalf("%s: expected a witness", phi)
		}
		if err := r.Witness.Validate(LTSModel(m)); err != nil {
			t.Fatalf("%s: %v", phi, err)
		}
		if !reflect.DeepEqual(r.Witness.Trace(m.Labels), r.Counterexample) {
			t.Errorf("%s: Counterexample and Witness.Trace disagree", phi)
		}
	}
}

// --- Validate as an oracle ---------------------------------------------------

// TestValidateRejectsDoctoredWitnesses: the structural replay must catch
// every class of corruption — a wrong label, a wrong destination, a stem
// not anchored at the initial state, a cycle that does not close, and
// mismatched state/label lengths.
func TestValidateRejectsDoctoredWitnesses(t *testing.T) {
	m := mkLTS(3, map[int][]lts.AdjEdge{
		0: {edge(lab("a"), 1)},
		1: {edge(lab("b"), 2)},
		2: {edge(lab("c"), 1)},
	})
	r := Check(m, Box(Prop{Set: set("a")}))
	if r.Holds || r.Witness == nil {
		t.Fatal("expected a witness")
	}
	good := r.Witness
	if err := good.Validate(LTSModel(m)); err != nil {
		t.Fatalf("genuine witness rejected: %v", err)
	}
	clone := func() *Witness {
		c := &Witness{
			StemStates:  append([]int{}, good.StemStates...),
			StemLabels:  append([]int32{}, good.StemLabels...),
			CycleStates: append([]int{}, good.CycleStates...),
			CycleLabels: append([]int32{}, good.CycleLabels...),
		}
		return c
	}
	cases := map[string]func(*Witness){
		"wrong stem label": func(w *Witness) { w.StemLabels[0] = w.StemLabels[0] + 1 },
		"wrong cycle dst":  func(w *Witness) { w.CycleStates[1] = (w.CycleStates[1] + 1) % m.Len() },
		"unanchored stem":  func(w *Witness) { w.StemStates[0] = w.StemStates[0] + 1 },
		"open cycle":       func(w *Witness) { w.CycleStates[len(w.CycleStates)-1] = (w.Head() + 1) % m.Len() },
		"length mismatch":  func(w *Witness) { w.StemStates = w.StemStates[:len(w.StemStates)-1] },
		"empty cycle":      func(w *Witness) { w.CycleLabels = nil; w.CycleStates = w.CycleStates[:1] },
	}
	for name, corrupt := range cases {
		w := clone()
		corrupt(w)
		if err := w.Validate(LTSModel(m)); err == nil {
			t.Errorf("%s: corrupted witness validated", name)
		}
	}
}

// --- Büchi lasso acceptance --------------------------------------------------

func TestAcceptsLasso(t *testing.T) {
	a, b, c := lab("a"), lab("b"), lab("c")
	// ¬□⟨a⟩ = ♢⟨¬a⟩: accepts any lasso containing a non-a label.
	ba := Translate(Not{F: Box(Prop{Set: set("a")})})
	if !ba.AcceptsLasso([]typelts.Label{a}, []typelts.Label{b}) {
		t.Error("a b^ω must be accepted by ¬□⟨a⟩")
	}
	if ba.AcceptsLasso(nil, []typelts.Label{a}) {
		t.Error("a^ω must be rejected by ¬□⟨a⟩")
	}
	if !ba.AcceptsLasso(nil, []typelts.Label{a, c}) {
		t.Error("(a c)^ω must be accepted by ¬□⟨a⟩ (empty-prefix path)")
	}
	// ¬♢⟨b⟩ = □⟨¬b⟩: accepts exactly the b-free lassos.
	ba2 := Translate(Not{F: Diamond(Prop{Set: set("b")})})
	if !ba2.AcceptsLasso([]typelts.Label{a}, []typelts.Label{c}) {
		t.Error("a c^ω must be accepted by □¬⟨b⟩")
	}
	if ba2.AcceptsLasso([]typelts.Label{a, b}, []typelts.Label{c}) {
		t.Error("a b c^ω must be rejected by □¬⟨b⟩ (b in the prefix)")
	}
	if ba2.AcceptsLasso([]typelts.Label{a}, []typelts.Label{c, b}) {
		t.Error("a (c b)^ω must be rejected by □¬⟨b⟩ (b in the cycle)")
	}
	if ba2.AcceptsLasso(nil, nil) {
		t.Error("the empty lasso is not a run")
	}
	// Until with an obligation inside the cycle: ¬(a U b) accepted lassos
	// either never reach b or leave the a-region first.
	ba3 := Translate(Not{F: Until{L: Prop{Set: set("a")}, R: Prop{Set: set("b")}}})
	if !ba3.AcceptsLasso(nil, []typelts.Label{a}) {
		t.Error("a^ω must be accepted by ¬(aUb) (b never holds)")
	}
	if ba3.AcceptsLasso(nil, []typelts.Label{b}) {
		t.Error("b^ω must be rejected by ¬(aUb) (b holds immediately)")
	}
}

// TestCheckerAgreesWithAcceptsLasso cross-checks the algorithms on
// every counterexample of the existing suite fixtures: the product NDFS
// produced the lasso (over the pattern automata where the formula is a
// pattern, over the tableau otherwise), and both the tableau's
// lasso-acceptance check and EvalLasso must agree it violates the
// formula.
func TestCheckerAgreesWithAcceptsLasso(t *testing.T) {
	m := mkLTS(4, map[int][]lts.AdjEdge{
		0: {edge(lab("i"), 1), edge(lab("a"), 0)},
		1: {edge(lab("x"), 2)},
		2: {edge(lab("y"), 3)},
		3: {edge(lab("z"), 1), edge(typelts.Done{}, 3)},
	})
	formulas := []Formula{
		Box(Prop{Set: set("i", "x", "y", "a")}),
		Box(Diamond(Prop{Set: set("i")})),
		Box(Implies(Prop{Set: set("x")}, Next{F: Prop{Set: set("z")}})),
		Diamond(Prop{Set: DoneActions()}),
		Until{L: Prop{Set: set("a")}, R: Prop{Set: set("i")}},
	}
	for _, phi := range formulas {
		r := Oracle(m, phi)
		if _, err := negation(phi); err == nil {
			r = Check(m, phi)
		}
		if r.Holds {
			continue
		}
		if r.Witness == nil {
			t.Fatalf("%s: FAIL without witness", phi)
		}
		if err := r.Witness.Validate(LTSModel(m)); err != nil {
			t.Errorf("%s: %v", phi, err)
		}
		tr := r.Witness.Trace(m.Labels)
		ba := Translate(Not{F: Simplify(phi)})
		if !ba.AcceptsLasso(tr.Prefix, tr.Cycle) {
			t.Errorf("%s: NDFS counterexample rejected by the lasso-acceptance check", phi)
		}
		if EvalLasso(phi, tr.Prefix, tr.Cycle) {
			t.Errorf("%s: EvalLasso says the NDFS counterexample satisfies the formula", phi)
		}
	}
}

// --- markStore: growth and the sparse fallback -------------------------------

// TestMarkStoreGrowthAndSparseFallback drives the store through its three
// regimes: preallocated dense, grown dense (the on-the-fly path), and the
// sparse overflow beyond the dense cap.
func TestMarkStoreGrowthAndSparseFallback(t *testing.T) {
	// Dense growth: start tiny, write far beyond the initial size.
	s := newMarkStore(2)
	s.setColor(0, colorCyan)
	s.or(1000, redFlag)
	s.setColor(1000, colorBlue)
	if got := s.get(0); got&colorMask != colorCyan {
		t.Errorf("dense get(0) = %d", got)
	}
	if got := s.get(1000); got != colorBlue|redFlag {
		t.Errorf("grown get(1000) = %d, want blue|red", got)
	}
	if s.sparse != nil {
		t.Error("growth below the cap must stay dense")
	}
	// Sparse from birth (size beyond the cap), exercising the same ops.
	s2 := newMarkStore(maxDenseMarks + 1)
	if s2.dense != nil {
		t.Fatal("oversized store must start sparse")
	}
	s2.setColor(maxDenseMarks+5, colorCyan)
	s2.or(maxDenseMarks+5, redFlag)
	if got := s2.get(maxDenseMarks + 5); got != colorCyan|redFlag {
		t.Errorf("sparse get = %d, want cyan|red", got)
	}
	if got := s2.get(42); got != 0 {
		t.Errorf("sparse default = %d, want 0", got)
	}
	// Hybrid: a dense store that overflows the cap spills to the map while
	// the dense prefix keeps serving.
	s3 := markStore{dense: make([]uint8, 4)}
	s3.setColor(1, colorBlue)
	s3.sparse = map[int]uint8{} // simulate a store that already spilled
	s3.setColor(10, colorCyan)
	if s3.get(1)&colorMask != colorBlue || s3.get(10)&colorMask != colorCyan {
		t.Error("hybrid store must serve both regimes")
	}
}

// TestSparseMarkStoreSameVerdictAndWitness forces the checker's marks
// into the sparse regime and asserts verdict, witness and visit count are
// identical to the dense run — the sparse fallback is a memory strategy,
// never a semantic one.
func TestSparseMarkStoreSameVerdictAndWitness(t *testing.T) {
	m := mkLTS(4, map[int][]lts.AdjEdge{
		0: {edge(lab("i"), 1)},
		1: {edge(lab("x"), 2)},
		2: {edge(lab("y"), 3)},
		3: {edge(lab("z"), 1)},
	})
	for _, phi := range []Formula{
		Box(Prop{Set: set("i", "x", "y")}),
		Box(Diamond(Prop{Set: set("i")})),
		Box(Prop{Set: set("i", "x", "y", "z")}), // holds
	} {
		phi := Simplify(phi)
		ba := Translate(Not{F: phi})

		dense := newProduct(LTSModel(m), ba)
		dw, dv := dense.findAcceptingLasso()

		sparse := newProduct(LTSModel(m), ba)
		sparse.marks = markStore{sparse: map[int]uint8{}}
		sw, sv := sparse.findAcceptingLasso()

		if (dw == nil) != (sw == nil) {
			t.Fatalf("%s: dense verdict %v, sparse %v", phi, dw == nil, sw == nil)
		}
		if dv != sv {
			t.Errorf("%s: dense visited %d, sparse %d", phi, dv, sv)
		}
		if !reflect.DeepEqual(dw, sw) {
			t.Errorf("%s: dense and sparse witnesses differ:\n%+v\n%+v", phi, dw, sw)
		}
	}
}
