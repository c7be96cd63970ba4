package mucalc

import (
	"context"
	"testing"

	"effpi/internal/lts"
	"effpi/internal/typelts"
	"effpi/internal/types"
)

// lab builds a distinct label named n (an output on channel variable n).
func lab(n string) typelts.Label {
	return typelts.Output{Subject: types.Var{Name: n}, Payload: types.Unit{}}
}

// set is the action set containing exactly the labels with the given names.
func set(names ...string) ActionSet {
	labels := make([]typelts.Label, len(names))
	for i, n := range names {
		labels[i] = lab(n)
	}
	return LabelSet("{"+join(names)+"}", labels...)
}

func join(ns []string) string {
	out := ""
	for i, n := range ns {
		if i > 0 {
			out += ","
		}
		out += n
	}
	return out
}

// mkLTS builds a test LTS; every state must have ≥1 outgoing edge
// (run-completed), matching what lts.Explore produces.
func mkLTS(n int, edges map[int][]lts.AdjEdge) *lts.LTS {
	states := make([]types.Type, n)
	adj := make([][]lts.AdjEdge, n)
	for i := 0; i < n; i++ {
		states[i] = types.Nil{}
		adj[i] = edges[i]
	}
	return lts.FromAdjacency(states, adj, 0)
}

func edge(l typelts.Label, dst int) lts.AdjEdge { return lts.AdjEdge{Label: l, Dst: dst} }

// Check decides m |= phi with the clause checker; phi must be a
// conjunction of the four patterns. Formulas outside them go to the
// tableau oracle instead.
func Check(m *lts.LTS, phi Formula) Result {
	r, err := CheckContext(context.Background(), m, phi)
	if err != nil {
		panic(err)
	}
	return r
}

func TestBoxOnSelfLoop(t *testing.T) {
	// One state looping on "a".
	m := mkLTS(1, map[int][]lts.AdjEdge{0: {edge(lab("a"), 0)}})
	if r := Check(m, Box(Prop{Set: set("a")})); !r.Holds {
		t.Errorf("□⟨a⟩ must hold on a^ω (counterexample: %+v)", r.Counterexample)
	}
	if r := Check(m, Box(Prop{Set: set("b")})); r.Holds {
		t.Error("□⟨b⟩ must fail on a^ω")
	} else if r.Counterexample == nil {
		t.Error("expected a counterexample lasso")
	}
}

func TestDiamond(t *testing.T) {
	// 0 --a--> 1 --b--> 1.
	m := mkLTS(2, map[int][]lts.AdjEdge{
		0: {edge(lab("a"), 1)},
		1: {edge(lab("b"), 1)},
	})
	if r := Oracle(m, Diamond(Prop{Set: set("b")})); !r.Holds {
		t.Error("♢⟨b⟩ must hold")
	}
	if r := Oracle(m, Diamond(Prop{Set: set("c")})); r.Holds {
		t.Error("♢⟨c⟩ must fail")
	}
	if r := Check(m, Box(Diamond(Prop{Set: set("b")}))); !r.Holds {
		t.Error("□♢⟨b⟩ must hold")
	}
	if r := Check(m, Box(Prop{Set: set("a")})); r.Holds {
		t.Error("□⟨a⟩ must fail (b occurs)")
	}
}

func TestUntil(t *testing.T) {
	// 0 --a--> 0, 0 --b--> 1, 1 --c--> 1: runs a^n b c^ω and a^ω.
	m := mkLTS(2, map[int][]lts.AdjEdge{
		0: {edge(lab("a"), 0), edge(lab("b"), 1)},
		1: {edge(lab("c"), 1)},
	})
	// ⟨a⟩⊤ U ⟨b⟩⊤ fails: the run a^ω never reaches b.
	phi := Until{L: Prop{Set: set("a")}, R: Prop{Set: set("b")}}
	if r := Oracle(m, phi); r.Holds {
		t.Error("aUb must fail on a^ω")
	}
	// On the sub-LTS without the a-loop it holds.
	m2 := mkLTS(2, map[int][]lts.AdjEdge{
		0: {edge(lab("b"), 1)},
		1: {edge(lab("c"), 1)},
	})
	if r := Oracle(m2, phi); !r.Holds {
		t.Errorf("aUb must hold on b c^ω (b immediately): %+v", r.Counterexample)
	}
}

func TestPrefix(t *testing.T) {
	// 0 --a--> 1 --b--> 1.
	m := mkLTS(2, map[int][]lts.AdjEdge{
		0: {edge(lab("a"), 1)},
		1: {edge(lab("b"), 1)},
	})
	// (a)(b)⊤ holds; (b)⊤ fails; (a)(a)⊤ fails.
	if r := Oracle(m, Prefix(set("a"), Prefix(set("b"), True{}))); !r.Holds {
		t.Error("(a)(b)⊤ must hold")
	}
	if r := Oracle(m, Prefix(set("b"), True{})); r.Holds {
		t.Error("(b)⊤ must fail")
	}
	if r := Oracle(m, Prefix(set("a"), Prefix(set("a"), True{}))); r.Holds {
		t.Error("(a)(a)⊤ must fail")
	}
	// (−b)⊤ holds (first action is a ∉ {b}).
	if r := Oracle(m, PrefixCo(set("b"), True{})); !r.Holds {
		t.Error("(−b)⊤ must hold")
	}
}

func TestBranchingAllRuns(t *testing.T) {
	// 0 branches to a-loop and b-loop: T |= ϕ quantifies over ALL runs.
	m := mkLTS(3, map[int][]lts.AdjEdge{
		0: {edge(lab("a"), 1), edge(lab("b"), 2)},
		1: {edge(lab("a"), 1)},
		2: {edge(lab("b"), 2)},
	})
	if r := Check(m, Box(Prop{Set: set("a", "b")})); !r.Holds {
		t.Error("□⟨a,b⟩ must hold on both branches")
	}
	if r := Check(m, Box(Prop{Set: set("a")})); r.Holds {
		t.Error("□⟨a⟩ must fail on the b branch")
	}
	if r := Oracle(m, Diamond(Prop{Set: set("b")})); r.Holds {
		t.Error("♢⟨b⟩ must fail on the a branch")
	}
}

func TestImplicationResponse(t *testing.T) {
	// Request/response: 0 --req--> 1 --resp--> 0, and an idle loop 0 --idle--> 0.
	m := mkLTS(2, map[int][]lts.AdjEdge{
		0: {edge(lab("idle"), 0), edge(lab("req"), 1)},
		1: {edge(lab("resp"), 0)},
	})
	// □(⟨req⟩⊤ ⇒ X ♢⟨resp⟩⊤) holds.
	phi := Box(Implies(Prop{Set: set("req")}, Next{F: Diamond(Prop{Set: set("resp")})}))
	if r := Check(m, phi); !r.Holds {
		t.Errorf("request⇒response must hold: %+v", r.Counterexample)
	}
	// Broken system: 1 loops on "stall" instead of responding.
	m2 := mkLTS(2, map[int][]lts.AdjEdge{
		0: {edge(lab("idle"), 0), edge(lab("req"), 1)},
		1: {edge(lab("stall"), 1)},
	})
	if r := Check(m2, phi); r.Holds {
		t.Error("request⇒response must fail when the server stalls")
	}
}

func TestDoneCompletion(t *testing.T) {
	// 0 --a--> 1(✔): proper termination.
	m := mkLTS(2, map[int][]lts.AdjEdge{
		0: {edge(lab("a"), 1)},
		1: {edge(typelts.Done{}, 1)},
	})
	// ♢⟨✔⟩ holds; □⟨a⟩ fails.
	if r := Oracle(m, Diamond(Prop{Set: DoneActions()})); !r.Holds {
		t.Error("♢✔ must hold on a terminating run")
	}
	if r := Check(m, Box(Prop{Set: set("a")})); r.Holds {
		t.Error("□⟨a⟩ must fail at termination")
	}
}

func TestCounterexampleShape(t *testing.T) {
	// 0 --a--> 1 --b--> 1; □⟨a⟩ fails with prefix [a] and cycle [b...].
	m := mkLTS(2, map[int][]lts.AdjEdge{
		0: {edge(lab("a"), 1)},
		1: {edge(lab("b"), 1)},
	})
	r := Check(m, Box(Prop{Set: set("a")}))
	if r.Holds || r.Counterexample == nil {
		t.Fatal("expected counterexample")
	}
	if len(r.Counterexample.Cycle) == 0 {
		t.Error("counterexample cycle must be non-empty")
	}
	all := append(append([]typelts.Label{}, r.Counterexample.Prefix...), r.Counterexample.Cycle...)
	sawB := false
	for _, l := range all {
		if set("b").Contains(l) {
			sawB = true
		}
	}
	if !sawB {
		t.Errorf("counterexample must exhibit the violating action b: %v", all)
	}
}

// TestRedDFSCycleLabels regression-tests the inner-DFS counterexample
// reconstruction: the cycle labels must be the *incoming* labels of the
// red path (frame.in, fixed at push time), not the frames' outgoing-edge
// cursor (frame.via), which each frame overwrites while iterating. With
// the cursor wrongly reused, a 3-edge cycle x y z came back as y z z —
// a label sequence that is not a run of the LTS.
func TestRedDFSCycleLabels(t *testing.T) {
	// 0 --i--> 1 --x--> 2 --y--> 3 --z--> 1.
	m := mkLTS(4, map[int][]lts.AdjEdge{
		0: {edge(lab("i"), 1)},
		1: {edge(lab("x"), 2)},
		2: {edge(lab("y"), 3)},
		3: {edge(lab("z"), 1)},
	})
	// A one-state Büchi automaton admitting everything: the product is
	// the LTS itself, so redDFS from (1,q) must walk the full 3-edge
	// cycle back to its seed.
	ba := &Buchi{
		Pos:       make([][]ActionSet, 1),
		Neg:       make([][]ActionSet, 1),
		Succ:      [][]int{{0}},
		Init:      []int{0},
		Accepting: []bool{true},
	}
	p := newProduct(LTSModel(m), ba)
	path := p.redDFS(p.encode(1, 0))
	if path == nil {
		t.Fatal("expected redDFS to find the cycle")
	}
	var got []string
	for _, f := range path[1:] {
		got = append(got, p.m.Labels()[f.in].Key())
	}
	want := []string{lab("x").Key(), lab("y").Key(), lab("z").Key()}
	if len(got) != len(want) {
		t.Fatalf("cycle labels %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cycle labels %v, want %v", got, want)
		}
	}
}

// lassoFeasible reports whether the trace is an actual run of m: the
// prefix must be traversable from the initial state, and the cycle must
// remain traversable when repeated (checked twice, which exposes any
// label sequence that only accidentally matches once).
func lassoFeasible(m *lts.LTS, tr *Trace) bool {
	step := func(cur map[int]bool, l typelts.Label) map[int]bool {
		next := map[int]bool{}
		for s := range cur {
			for _, e := range m.Out(s) {
				if m.LabelOf(e).Key() == l.Key() {
					next[int(e.Dst)] = true
				}
			}
		}
		return next
	}
	cur := map[int]bool{m.Initial: true}
	for _, l := range tr.Prefix {
		if cur = step(cur, l); len(cur) == 0 {
			return false
		}
	}
	for i := 0; i < 2; i++ {
		for _, l := range tr.Cycle {
			if cur = step(cur, l); len(cur) == 0 {
				return false
			}
		}
	}
	return true
}

// TestCounterexamplesAreRuns: every counterexample lasso the checker
// reports on a multi-state cycle must be a feasible run of the LTS.
func TestCounterexamplesAreRuns(t *testing.T) {
	m := mkLTS(4, map[int][]lts.AdjEdge{
		0: {edge(lab("i"), 1)},
		1: {edge(lab("x"), 2)},
		2: {edge(lab("y"), 3)},
		3: {edge(lab("z"), 1)},
	})
	for _, phi := range []Formula{
		Box(Prop{Set: set("i", "x", "y")}),                              // z occurs
		Box(Diamond(Prop{Set: set("i")})),                               // i fires only once
		Box(Implies(Prop{Set: set("x")}, Next{F: Prop{Set: set("z")}})), // x is followed by y
	} {
		r := Oracle(m, phi)
		if _, err := negation(phi); err == nil {
			r = Check(m, phi)
		}
		if r.Holds {
			t.Fatalf("%s must fail on i (x y z)^ω", phi)
		}
		if r.Counterexample == nil || len(r.Counterexample.Cycle) == 0 {
			t.Fatalf("%s: expected a lasso counterexample, got %+v", phi, r.Counterexample)
		}
		if !lassoFeasible(m, r.Counterexample) {
			t.Errorf("%s: counterexample is not a run of the LTS: prefix=%v cycle=%v",
				phi, r.Counterexample.Prefix, r.Counterexample.Cycle)
		}
	}
}

func TestNNFInvolution(t *testing.T) {
	phi := Box(Implies(Prop{Set: set("req")}, Until{L: NegProp{Set: set("req")}, R: Prop{Set: set("resp")}}))
	n1 := NNF(phi)
	n2 := NNF(NNF(Not{F: Not{F: phi}}))
	if n1.Key() != n2.Key() {
		t.Errorf("NNF(¬¬ϕ) ≠ NNF(ϕ):\n  %s\n  %s", n1.Key(), n2.Key())
	}
	if hasNot(n1) {
		t.Error("NNF output contains Not")
	}
}

func hasNot(f Formula) bool {
	switch f := f.(type) {
	case Not:
		return true
	case And:
		return hasNot(f.L) || hasNot(f.R)
	case Or:
		return hasNot(f.L) || hasNot(f.R)
	case Next:
		return hasNot(f.F)
	case Until:
		return hasNot(f.L) || hasNot(f.R)
	case Release:
		return hasNot(f.L) || hasNot(f.R)
	default:
		return false
	}
}

func TestReleaseSemantics(t *testing.T) {
	// a R b: b holds until (and including when) a holds; if a never
	// holds, b must hold forever.
	m := mkLTS(1, map[int][]lts.AdjEdge{0: {edge(lab("b"), 0)}})
	phi := Release{L: Prop{Set: set("a")}, R: Prop{Set: set("b")}}
	if r := Oracle(m, phi); !r.Holds {
		t.Error("aRb must hold on b^ω")
	}
	m2 := mkLTS(2, map[int][]lts.AdjEdge{
		0: {edge(lab("b"), 1)},
		1: {edge(lab("c"), 1)},
	})
	if r := Oracle(m2, phi); r.Holds {
		t.Error("aRb must fail on b c^ω")
	}
	// b, then a&b simultaneously impossible with single labels; release
	// with overlapping sets: (a∪b R b) on b^ω then... keep simple: the
	// release fires when a position satisfies both L and R.
	m3 := mkLTS(2, map[int][]lts.AdjEdge{
		0: {edge(lab("b"), 1)},
		1: {edge(lab("c"), 1)},
	})
	phi2 := Release{L: Prop{Set: set("b")}, R: Prop{Set: set("b")}}
	if r := Oracle(m3, phi2); !r.Holds {
		t.Error("bRb must hold when the first position satisfies both")
	}
}
