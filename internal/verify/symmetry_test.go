package verify

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"effpi/internal/types"
)

// symPairs builds n independent ping-pong pairs sharing one abstract
// shape: pair i owns a request channel zi and a reply channel yi, the
// pinger sends on zi then waits on yi, the ponger mirrors it. Any
// permutation of whole pairs is an automorphism of the composition, so
// DetectSymmetry finds a non-trivial group whenever two or more pairs
// are unpinned — the fixture the symmetry-mode tests revolve around.
func symPairs(n int) (*types.Env, types.Type) {
	env := types.NewEnv()
	str := types.Str{}
	comps := make([]types.Type, 0, 2*n)
	for i := 1; i <= n; i++ {
		z, y := fmt.Sprintf("z%d", i), fmt.Sprintf("y%d", i)
		env = env.MustExtend(z, types.ChanIO{Elem: str})
		env = env.MustExtend(y, types.ChanIO{Elem: str})
		comps = append(comps,
			types.Out{Ch: tv(z), Payload: str, Cont: types.Thunk(
				types.In{Ch: tv(y), Cont: types.Pi{Var: "r", Dom: str, Cod: types.Nil{}}})},
			types.In{Ch: tv(z), Cont: types.Pi{Var: "s", Dom: str, Cod: types.Out{
				Ch: tv(y), Payload: str, Cont: types.Thunk(types.Nil{})}}})
	}
	return env, types.ParOf(comps...)
}

// symProps exercises PASS and FAIL verdicts over the pair fixture, all
// closed (symmetry only engages when the observable set is empty). The
// non-usage probe on z1 fails — z1 is used — which is the property the
// witness-lift assertions ride on.
func symProps() []Property {
	return []Property{
		{Kind: DeadlockFree, Channels: []string{"z1"}, Closed: true},
		{Kind: NonUsage, Channels: []string{"z1"}, Closed: true},
		{Kind: Reactive, From: "z1", Closed: true},
		{Kind: Forwarding, From: "z1", To: "y1", Closed: true},
	}
}

// TestParseSymmetry covers the flag/wire-name round trip and the
// valid-values error contract shared with ParsePartialOrder.
func TestParseSymmetry(t *testing.T) {
	for _, tc := range []struct {
		name string
		want SymmetryMode
	}{{"off", SymmetryOff}, {"on", SymmetryOn}} {
		got, err := ParseSymmetry(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("ParseSymmetry(%q) = %v, %v", tc.name, got, err)
		}
		if got.String() != tc.name {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), tc.name)
		}
	}
	_, err := ParseSymmetry("orbit")
	if err == nil {
		t.Fatal("unknown symmetry mode must error")
	}
	for _, want := range []string{`"orbit"`, "off", "on"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("ParseSymmetry error %q does not mention %s", err, want)
		}
	}
}

// TestSymmetryVerdictsMatchOff is the core differential contract: for
// every fixture property, symmetric verification returns the same
// verdict and the same concrete States count as the reference pipeline,
// explores at most as many states, and every FAIL carries a lifted
// witness over a concrete fragment (WitnessLTS) that the replay oracle
// validates — byte-identically at every worker count.
func TestSymmetryVerdictsMatchOff(t *testing.T) {
	env, sys := symPairs(4)
	sawReduction, sawFail := false, false
	for _, p := range symProps() {
		base, err := Verify(Request{Env: env, Type: sys, Property: p, Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		var serial *Outcome
		for _, par := range []int{1, 2, 8} {
			sym, err := Verify(Request{Env: env, Type: sys, Property: p, Parallelism: par, Symmetry: SymmetryOn})
			if err != nil {
				t.Fatalf("%s par %d: %v", p, par, err)
			}
			if sym.Holds != base.Holds {
				t.Errorf("%s par %d: symmetric verdict %v, reference %v", p, par, sym.Holds, base.Holds)
			}
			if sym.States != base.States {
				t.Errorf("%s par %d: symmetric States %d, reference %d (States must stay the concrete-equivalent count)", p, par, sym.States, base.States)
			}
			if sym.StatesExplored >= base.States {
				t.Errorf("%s par %d: explored %d orbit states, no fewer than the %d concrete ones", p, par, sym.StatesExplored, base.States)
			} else {
				sawReduction = true
			}
			if par == 1 {
				serial = sym
			}
			if sym.StatesExplored != serial.StatesExplored {
				t.Errorf("%s par %d: explored %d states, serial symmetric run explored %d", p, par, sym.StatesExplored, serial.StatesExplored)
			}
			if !reflect.DeepEqual(rawWitness(sym), rawWitness(serial)) {
				t.Errorf("%s par %d: lifted witness differs from the serial symmetric run's", p, par)
			}
			if sym.Holds {
				continue
			}
			sawFail = true
			if sym.WitnessLTS == nil {
				t.Fatalf("%s par %d: symmetric FAIL without a lifted witness fragment", p, par)
			}
			if err := Replay(sym); err != nil {
				t.Errorf("%s par %d: lifted witness does not replay: %v", p, par, err)
			}
		}
	}
	if !sawReduction {
		t.Error("no property explored fewer states than the concrete space — symmetry never engaged")
	}
	if !sawFail {
		t.Error("no property failed — the witness lift was never exercised")
	}
}

func rawWitness(o *Outcome) interface{} {
	if o.Witness == nil {
		return nil
	}
	return o.Witness.Raw
}

// TestSymmetryEarlyExit: the on-the-fly engine explores orbit
// representatives too — verdicts match the full reference pipeline,
// never more states are touched than the concrete count, and early
// FAILs lift and replay like batch ones.
func TestSymmetryEarlyExit(t *testing.T) {
	env, sys := symPairs(4)
	for _, p := range symProps() {
		switch p.Kind {
		case NonUsage, DeadlockFree, Reactive:
		default:
			continue
		}
		base, err := Verify(Request{Env: env, Type: sys, Property: p})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		early, err := Verify(Request{Env: env, Type: sys, Property: p, EarlyExit: true, Symmetry: SymmetryOn})
		if err != nil {
			t.Fatalf("%s early+symmetry: %v", p, err)
		}
		if !early.EarlyExit {
			t.Fatalf("%s: early-exit request did not take the on-the-fly path", p)
		}
		if early.Holds != base.Holds {
			t.Errorf("%s: early symmetric verdict %v, reference %v", p, early.Holds, base.Holds)
		}
		if early.StatesExplored > base.States {
			t.Errorf("%s: early symmetric run discovered %d states, concrete space has %d", p, early.StatesExplored, base.States)
		}
		if !early.Holds {
			if err := Replay(early); err != nil {
				t.Errorf("%s: early symmetric witness does not replay: %v", p, err)
			}
		}
	}
}

// TestSymmetryOpenPropertyFallsBack: symmetry needs a closed system —
// open properties Y-limit the semantics, the bundle group is not sound
// against observable probes, and the request must silently run the
// reference pipeline instead (explored == concrete count).
func TestSymmetryOpenPropertyFallsBack(t *testing.T) {
	env, sys := symPairs(3)
	p := Property{Kind: NonUsage, Channels: []string{"z1"}}
	base, err := Verify(Request{Env: env, Type: sys, Property: p})
	if err != nil {
		t.Fatal(err)
	}
	sym, err := Verify(Request{Env: env, Type: sys, Property: p, Symmetry: SymmetryOn})
	if err != nil {
		t.Fatal(err)
	}
	if sym.Holds != base.Holds || sym.States != base.States {
		t.Errorf("open property: symmetric (holds=%v states=%d), reference (holds=%v states=%d)",
			sym.Holds, sym.States, base.Holds, base.States)
	}
	if sym.StatesExplored != sym.States {
		t.Errorf("open property must fall back to concrete exploration: explored %d, states %d", sym.StatesExplored, sym.States)
	}
}

// TestVerifyAllSymmetryMatchesSingle: the batched pipeline under
// symmetry agrees with per-property requests on verdicts, concrete
// States and witness replays, at every batch width — width 1 runs the
// engine as a plain loop and must prepare groups identically.
func TestVerifyAllSymmetryMatchesSingle(t *testing.T) {
	env, sys := symPairs(4)
	props := symProps()
	singles := make([]*Outcome, len(props))
	for i, p := range props {
		o, err := Verify(Request{Env: env, Type: sys, Property: p})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		singles[i] = o
	}
	var serial []*Outcome
	for _, par := range []int{1, 2, 8} {
		outs, err := VerifyAllWith(env, sys, props, AllOptions{Parallelism: par, Symmetry: SymmetryOn})
		if err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		if par == 1 {
			serial = outs
		}
		for i := range props {
			if outs[i].Holds != singles[i].Holds {
				t.Errorf("par %d %s: batched symmetric verdict %v, single %v", par, props[i], outs[i].Holds, singles[i].Holds)
			}
			if outs[i].States != singles[i].States {
				t.Errorf("par %d %s: batched States %d, single %d", par, props[i], outs[i].States, singles[i].States)
			}
			if !reflect.DeepEqual(rawWitness(outs[i]), rawWitness(serial[i])) {
				t.Errorf("par %d %s: witness differs from the serial batched run's", par, props[i])
			}
			if outs[i].Holds || props[i].Kind == EventualOutput {
				continue
			}
			if err := Replay(outs[i]); err != nil {
				t.Errorf("par %d %s: batched symmetric witness does not replay: %v", par, props[i], err)
			}
		}
	}
}
