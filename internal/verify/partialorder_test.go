package verify

import (
	"reflect"
	"strings"
	"testing"
)

// TestParsePartialOrder covers the flag/wire-name round trip and the
// valid-values error contract shared with ParseSymmetry.
func TestParsePartialOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		want PartialOrderMode
	}{{"off", PartialOrderOff}, {"on", PartialOrderOn}} {
		got, err := ParsePartialOrder(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("ParsePartialOrder(%q) = %v, %v", tc.name, got, err)
		}
		if got.String() != tc.name {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), tc.name)
		}
	}
	_, err := ParsePartialOrder("ample")
	if err == nil {
		t.Fatal("unknown partial-order mode must error")
	}
	for _, want := range []string{`"ample"`, "off", "on"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("ParsePartialOrder error %q does not mention %s", err, want)
		}
	}
}

// TestPartialOrderVerdictsMatchOff is the core differential contract at
// the single-request level: for every fixture property, the ample-
// reduced verification returns the same verdict as the reference
// pipeline, explores at most as many states (byte-identically at every
// worker count), and a FAIL carries a witness the replay oracle
// validates against the reduced LTS itself — reduced runs are concrete
// runs.
func TestPartialOrderVerdictsMatchOff(t *testing.T) {
	env, sys := symPairs(4)
	sawReduction, sawFail := false, false
	for _, p := range symProps() {
		base, err := Verify(Request{Env: env, Type: sys, Property: p, Options: Options{Parallelism: 1}})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		var serial *Outcome
		for _, par := range []int{1, 2, 8} {
			por, err := Verify(Request{Env: env, Type: sys, Property: p, Options: Options{Parallelism: par, PartialOrder: PartialOrderOn}})
			if err != nil {
				t.Fatalf("%s par %d: %v", p, par, err)
			}
			if por.Holds != base.Holds {
				t.Errorf("%s par %d: reduced verdict %v, reference %v", p, par, por.Holds, base.Holds)
			}
			if por.PartialOrder != compilesOnTheFly(p) {
				t.Errorf("%s par %d: PartialOrder flag %v, eligibility %v", p, par, por.PartialOrder, compilesOnTheFly(p))
			}
			if por.StatesExplored > base.States {
				t.Errorf("%s par %d: explored %d states, full space has %d", p, par, por.StatesExplored, base.States)
			}
			if !por.PartialOrder && por.States != base.States {
				t.Errorf("%s par %d: disengaged mode changed States %d -> %d", p, par, base.States, por.States)
			}
			if par == 1 {
				serial = por
				continue
			}
			if por.StatesExplored != serial.StatesExplored {
				t.Errorf("%s par %d: explored %d states, serial reduced run explored %d", p, par, por.StatesExplored, serial.StatesExplored)
			}
			if !sameWitness(por, serial) {
				t.Errorf("%s par %d: witness differs from the serial reduced run's", p, par)
			}
		}
		if serial.PartialOrder && serial.StatesExplored < base.States {
			sawReduction = true
		}
		if serial.PartialOrder && !serial.Holds {
			sawFail = true
			if serial.Witness == nil {
				t.Fatalf("%s: reduced FAIL without witness", p)
			}
			if err := Replay(serial); err != nil {
				t.Errorf("%s: reduced witness does not replay: %v", p, err)
			}
		}
	}
	if !sawReduction {
		t.Error("no fixture property explored fewer states — partial order never engaged")
	}
	if !sawFail {
		t.Error("no reduced FAIL — the replay route was never exercised")
	}
}

func sameWitness(a, b *Outcome) bool {
	if (a.Witness == nil) != (b.Witness == nil) {
		return false
	}
	return a.Witness == nil || reflect.DeepEqual(a.Witness.Raw, b.Witness.Raw)
}

// TestPartialOrderSymmetryPrecedence: with both exploration-time
// reductions requested on a symmetric closed system, symmetry claims the
// exploration — the outcome carries orbit bookkeeping, not the
// PartialOrder flag — and the verdict still matches the reference.
func TestPartialOrderSymmetryPrecedence(t *testing.T) {
	env, sys := symPairs(4)
	p := Property{Kind: DeadlockFree, Channels: []string{"z1"}, Closed: true}
	base, err := Verify(Request{Env: env, Type: sys, Property: p})
	if err != nil {
		t.Fatal(err)
	}
	both, err := Verify(Request{Env: env, Type: sys, Property: p, Options: Options{Symmetry: SymmetryOn, PartialOrder: PartialOrderOn}})
	if err != nil {
		t.Fatal(err)
	}
	if both.PartialOrder {
		t.Error("PartialOrder engaged although symmetry claimed the exploration")
	}
	if both.LTS.Sym == nil {
		t.Error("symmetry did not claim the exploration of a symmetric system")
	}
	if both.Holds != base.Holds || both.States != base.States {
		t.Errorf("verdict/States (%v, %d) differ from reference (%v, %d)", both.Holds, both.States, base.Holds, base.States)
	}
}

// TestPartialOrderEarlyExit: the on-the-fly engine accepts the ample
// filter — the incremental exploration expands reduced successor sets —
// with matching verdicts and the PartialOrder flag set.
func TestPartialOrderEarlyExit(t *testing.T) {
	env, sys := symPairs(3)
	for _, p := range symProps() {
		if !compilesOnTheFly(p) {
			continue
		}
		base, err := Verify(Request{Env: env, Type: sys, Property: p})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		otf, err := Verify(Request{Env: env, Type: sys, Property: p, Options: Options{PartialOrder: PartialOrderOn, EarlyExit: true}})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if !otf.EarlyExit || !otf.PartialOrder {
			t.Errorf("%s: EarlyExit=%v PartialOrder=%v, want both", p, otf.EarlyExit, otf.PartialOrder)
		}
		if otf.Holds != base.Holds {
			t.Errorf("%s: on-the-fly reduced verdict %v, reference %v", p, otf.Holds, base.Holds)
		}
		if otf.StatesExplored > base.States {
			t.Errorf("%s: discovered %d states, full space has %d", p, otf.StatesExplored, base.States)
		}
	}
}

// TestPartialOrderReuseIgnored: a POR-eligible property checked on an
// LTS it shares with a property POR cannot serve reuses that full
// exploration untouched — the mode never reduces an exploration another
// property needs in full.
func TestPartialOrderReuseIgnored(t *testing.T) {
	env, sys := symPairs(3)
	props := []Property{
		{Kind: DeadlockFree, Channels: []string{"z1"}, Closed: true},
		{Kind: Forwarding, From: "z1", To: "y1", Closed: true},
	}
	base, err := Verify(Request{Env: env, Type: sys, Property: props[0]})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := VerifyAllWith(env, sys, props, Options{PartialOrder: PartialOrderOn})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].LTS != outs[1].LTS {
		t.Error("the two properties did not share their group's exploration")
	}
	if outs[0].PartialOrder {
		t.Error("PartialOrder engaged on an exploration shared with an ineligible property")
	}
	if outs[0].StatesExplored != base.StatesExplored {
		t.Errorf("shared check explored %d states, want the full space's %d", outs[0].StatesExplored, base.StatesExplored)
	}
}

// TestVerifyAllPartialOrderMatchesSingle: a batch whose POR-eligible
// properties each have their own observable set explores each one under
// its own filter — outcomes must equal the single-request path's at
// every batch parallelism. In a mixed batch, where the eligible
// properties share their group with one POR cannot serve, the group is
// explored in full: every outcome is byte-identical to the same batch
// with POR off.
func TestVerifyAllPartialOrderMatchesSingle(t *testing.T) {
	env, sys := symPairs(3)
	props := porOwnProps()
	want := make([]*Outcome, len(props))
	for i, p := range props {
		o, err := Verify(Request{Env: env, Type: sys, Property: p, Options: Options{PartialOrder: PartialOrderOn}})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if !o.PartialOrder {
			t.Fatalf("%s: partial order did not engage on a lone request", p)
		}
		want[i] = o
	}
	for _, par := range []int{1, 2, 8} {
		got, err := VerifyAllWith(env, sys, props, Options{Parallelism: par, PartialOrder: PartialOrderOn})
		if err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		for i := range props {
			if got[i].Holds != want[i].Holds || got[i].PartialOrder != want[i].PartialOrder ||
				got[i].StatesExplored != want[i].StatesExplored {
				t.Errorf("par %d %s: batch outcome (%v, por=%v, explored=%d) differs from single request (%v, por=%v, explored=%d)",
					par, props[i], got[i].Holds, got[i].PartialOrder, got[i].StatesExplored,
					want[i].Holds, want[i].PartialOrder, want[i].StatesExplored)
			}
		}
	}

	mixed := symProps()
	off, err := VerifyAllWith(env, sys, mixed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 8} {
		on, err := VerifyAllWith(env, sys, mixed, Options{Parallelism: par, PartialOrder: PartialOrderOn})
		if err != nil {
			t.Fatalf("mixed par %d: %v", par, err)
		}
		for i, p := range mixed {
			if got, want := renderOutcome(on[i]), renderOutcome(off[i]); got != want {
				t.Errorf("mixed par %d %s: outcome differs from POR off:\n%s\nvs\n%s", par, p, got, want)
			}
		}
	}
}

// TestVerifyAllPartialOrderSymmetryPrecedence: with both modes on over a
// symmetric batch, the closed eligible properties ride the shared orbit
// exploration (symmetry wins), and outcomes match the symmetry-only
// batch exactly.
func TestVerifyAllPartialOrderSymmetryPrecedence(t *testing.T) {
	env, sys := symPairs(4)
	props := symProps()
	symOnly, err := VerifyAllWith(env, sys, props, Options{Symmetry: SymmetryOn})
	if err != nil {
		t.Fatal(err)
	}
	both, err := VerifyAllWith(env, sys, props, Options{Symmetry: SymmetryOn, PartialOrder: PartialOrderOn})
	if err != nil {
		t.Fatal(err)
	}
	for i := range props {
		if both[i].PartialOrder {
			t.Errorf("%s: PartialOrder engaged although the batch has a symmetry group", props[i])
		}
		if both[i].Holds != symOnly[i].Holds || both[i].StatesExplored != symOnly[i].StatesExplored {
			t.Errorf("%s: outcome (%v, %d) differs from symmetry-only batch (%v, %d)",
				props[i], both[i].Holds, both[i].StatesExplored, symOnly[i].Holds, symOnly[i].StatesExplored)
		}
	}
}
