package mucalc

import (
	"context"
	"strings"
	"testing"

	"effpi/internal/lts"
	"effpi/internal/typelts"
)

// TestClauseEdgeCases pins the checker's contract at its edges: a clause
// outside the four patterns is an error before any search, ⊥ fails with
// a witness, ⊤ and a clause made vacuous by a known-empty set hold
// without a product, and the right operand of a conjunction is checked
// first.
func TestClauseEdgeCases(t *testing.T) {
	// 0 --x--> 1 --x--> 1 and 0 --y--> 2 --y--> 2.
	m := mkLTS(3, map[int][]lts.AdjEdge{
		0: {edge(lab("x"), 1), edge(lab("y"), 2)},
		1: {edge(lab("x"), 1)},
		2: {edge(lab("y"), 2)},
	})
	ctx := context.Background()
	for _, phi := range []Formula{
		Diamond(Prop{Set: set("x")}),
		Until{L: Prop{Set: set("x")}, R: Prop{Set: set("y")}},
		Release{L: Prop{Set: set("x")}, R: Prop{Set: set("y")}},
		Box(Next{F: Prop{Set: set("x")}}),
		Box(And{L: Prop{Set: set("x")}, R: Prop{Set: set("y")}}),
		Box(Implies(Prop{Set: set("x")}, Next{F: Prop{Set: set("y")}})),
		Not{F: Box(Prop{Set: set("x")})},
		// The bad clause comes second, after one that fails: it is still
		// reported, because every clause is built before any search.
		And{L: Diamond(Prop{Set: set("x")}), R: Box(Prop{Set: set("x")})},
	} {
		if _, err := CheckContext(ctx, m, phi); err == nil || !strings.Contains(err.Error(), "none of") {
			t.Errorf("%s: want a pattern error, got %v", phi, err)
		}
	}

	r, err := CheckContext(ctx, m, False{})
	if err != nil || r.Holds || r.Witness == nil {
		t.Fatalf("⊥: holds=%v witness=%v err=%v, want a FAIL with a witness", r.Holds, r.Witness, err)
	}
	if err := r.Witness.Validate(LTSModel(m)); err != nil {
		t.Errorf("⊥ witness: %v", err)
	}

	for _, phi := range []Formula{
		True{},
		Box(NegProp{Set: LabelSet("∅")}),
		Box(Implies(Prop{Set: LabelSet("∅")}, Next{F: Until{L: NegProp{Set: set("y")}, R: Prop{Set: set("y")}}})),
		And{L: True{}, R: Box(True{})},
	} {
		r, err := CheckContext(ctx, m, phi)
		if err != nil || !r.Holds || r.ProductStates != 0 || r.AutomatonStates != 0 {
			t.Errorf("%s: holds=%v product=%d automaton=%d err=%v, want a PASS with no product", phi, r.Holds, r.ProductStates, r.AutomatonStates, err)
		}
	}

	// □¬y fails only on the y branch and □¬x only on the x branch: the
	// witness of their conjunction is the right operand's.
	r, err = CheckContext(ctx, m, And{L: Box(NegProp{Set: set("y")}), R: Box(NegProp{Set: set("x")})})
	if err != nil || r.Holds {
		t.Fatalf("holds=%v err=%v, want a FAIL", r.Holds, err)
	}
	if tr := r.Counterexample; EvalLasso(Box(NegProp{Set: set("x")}), tr.Prefix, tr.Cycle) {
		t.Errorf("witness %v·(%v)^ω does not violate the right operand", tr.Prefix, tr.Cycle)
	}
}

// --- FuzzLassoEval -----------------------------------------------------------

// letters is the fuzz alphabet; atoms are subsets of it.
var letters = []typelts.Label{lab("a"), lab("b"), lab("c")}

// atom is the action set of the letters whose bits are set in mask. The
// empty mask gives a known-empty set, so the known-empty rule is fuzzed
// too.
func atom(mask byte) ActionSet {
	var in []typelts.Label
	var names []string
	for i, l := range letters {
		if mask&(1<<i) != 0 {
			in = append(in, l)
			names = append(names, string(rune('a'+i)))
		}
	}
	return LabelSet("{"+join(names)+"}", in...)
}

// fuzzReader decodes fuzz bytes; past the end it reads zeros. It counts
// the formula's nodes and temporal operators: the tableau grows
// exponentially with them, so past maxNodes every op folds to a leaf and
// past maxTemporal every temporal op to a boolean one.
type fuzzReader struct {
	b                  []byte
	nodes, temporalOps int
}

func (r *fuzzReader) next() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// Formula byte codes: one op byte, an atom's mask byte after Prop and
// NegProp, then the operands.
const (
	opTrue = iota
	opFalse
	opProp
	opNegProp
	opNot
	opAnd
	opOr
	opNext
	opUntil
	opRelease
	numOps
)

const maxNodes, maxTemporal = 24, 6

func (r *fuzzReader) formula() Formula {
	op := r.next() % numOps
	if r.nodes++; r.nodes > maxNodes {
		op %= opNot
	} else if op >= opNext {
		if r.temporalOps++; r.temporalOps > maxTemporal {
			op -= opNext - opNot
		}
	}
	switch op {
	case opTrue:
		return True{}
	case opFalse:
		return False{}
	case opProp:
		return Prop{Set: atom(r.next() % 8)}
	case opNegProp:
		return NegProp{Set: atom(r.next() % 8)}
	case opNot:
		return Not{F: r.formula()}
	case opAnd:
		return And{L: r.formula(), R: r.formula()}
	case opOr:
		return Or{L: r.formula(), R: r.formula()}
	case opNext:
		return Next{F: r.formula()}
	case opUntil:
		return Until{L: r.formula(), R: r.formula()}
	default:
		return Release{L: r.formula(), R: r.formula()}
	}
}

// lasso decodes a stem of 0–3 letters and a cycle of 1–3.
func (r *fuzzReader) lasso() (stem, cycle []typelts.Label) {
	for n := r.next() % 4; n > 0; n-- {
		stem = append(stem, letters[r.next()%3])
	}
	for n := 1 + r.next()%3; n > 0; n-- {
		cycle = append(cycle, letters[r.next()%3])
	}
	return stem, cycle
}

// encode is the inverse of fuzzReader.formula, for seeding the corpus.
func encode(f Formula) []byte {
	mask := func(a ActionSet) byte {
		var m byte
		for i, l := range letters {
			if a.Contains(l) {
				m |= 1 << i
			}
		}
		return m
	}
	switch f := f.(type) {
	case True:
		return []byte{opTrue}
	case False:
		return []byte{opFalse}
	case Prop:
		return []byte{opProp, mask(f.Set)}
	case NegProp:
		return []byte{opNegProp, mask(f.Set)}
	case Not:
		return append([]byte{opNot}, encode(f.F)...)
	case And:
		return append(append([]byte{opAnd}, encode(f.L)...), encode(f.R)...)
	case Or:
		return append(append([]byte{opOr}, encode(f.L)...), encode(f.R)...)
	case Next:
		return append([]byte{opNext}, encode(f.F)...)
	case Until:
		return append(append([]byte{opUntil}, encode(f.L)...), encode(f.R)...)
	default:
		r := f.(Release)
		return append(append([]byte{opRelease}, encode(r.L)...), encode(r.R)...)
	}
}

// FuzzLassoEval: on a lasso word, EvalLasso(ϕ) is the opposite of the
// tableau's ¬ϕ automaton accepting it (after Simplify, as the oracle
// runs it: see Translate); and when ϕ is a conjunction of
// the four patterns, some clause's pattern automaton accepts the word
// exactly when the tableau's does. The corpus is seeded with the
// formulas of the checker's unit tests.
func FuzzLassoEval(f *testing.F) {
	a, b, c := set("a"), set("b"), set("c")
	seeds := []Formula{
		Box(Prop{Set: a}),
		Box(Prop{Set: b}),
		Box(Prop{Set: set("a", "b")}),
		Diamond(Prop{Set: b}),
		Box(Diamond(Prop{Set: b})),
		Until{L: Prop{Set: a}, R: Prop{Set: b}},
		Release{L: Prop{Set: a}, R: Prop{Set: b}},
		Release{L: Prop{Set: b}, R: Prop{Set: b}},
		Prefix(a, Prefix(b, True{})),
		PrefixCo(b, True{}),
		And{L: Box(Prop{Set: a}), R: Diamond(Prop{Set: b})},
		And{L: Box(Diamond(Prop{Set: a})), R: Box(Diamond(Prop{Set: b}))},
		And{L: And{L: Box(Diamond(Prop{Set: a})), R: Box(Diamond(Prop{Set: b}))}, R: Box(Diamond(Prop{Set: c}))},
		Box(Implies(Prop{Set: a}, Next{F: Diamond(Prop{Set: b})})),
		Box(Implies(Prop{Set: a}, Next{F: Prop{Set: c}})),
		Box(Implies(Prop{Set: a}, Next{F: Until{L: NegProp{Set: b}, R: Prop{Set: c}}})),
		And{L: Box(NegProp{Set: c}), R: Box(Implies(Prop{Set: a}, Next{F: Until{L: NegProp{Set: set("a", "b")}, R: Prop{Set: c}}}))},
		Until{L: Prop{Set: a}, R: Until{L: Prop{Set: b}, R: Prop{Set: c}}},
		Box(Implies(Prop{Set: a}, Until{L: NegProp{Set: a}, R: Prop{Set: b}})),
		Box(NegProp{Set: LabelSet("∅")}),
		Until{L: NegProp{Set: LabelSet("∅")}, R: Prop{Set: c}},
		Or{L: Diamond(Prop{Set: a}), R: False{}},
		Not{F: Not{F: Box(Prop{Set: a})}},
		Box(False{}),
		Diamond(True{}),
		True{},
		False{},
	}
	lassos := [][]byte{{1, 0, 1, 1}, {0, 2, 0, 2}, {2, 0, 1, 0, 2}}
	for i, phi := range seeds {
		f.Add(append(append([]byte{}, lassos[i%len(lassos)]...), encode(phi)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{b: data}
		stem, cycle := r.lasso()
		phi := r.formula()
		violated := Translate(Not{F: Simplify(phi)}).AcceptsLasso(stem, cycle)
		if holds := EvalLasso(phi, stem, cycle); holds == violated {
			t.Fatalf("%s on %v·(%v)^ω: EvalLasso says %v, the tableau's ¬ϕ automaton accepts=%v", phi, stem, cycle, holds, violated)
		}
		patterns := false
		for _, c := range clauses(phi, nil) {
			ba, err := negation(c)
			if err != nil {
				return // not a conjunction of the four patterns
			}
			patterns = patterns || ba != nil && ba.AcceptsLasso(stem, cycle)
		}
		if patterns != violated {
			t.Fatalf("%s on %v·(%v)^ω: pattern automata accept=%v, the tableau's accepts=%v", phi, stem, cycle, patterns, violated)
		}
	})
}
