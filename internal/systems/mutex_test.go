package systems

import (
	"fmt"
	"testing"

	"effpi/internal/lts"
	"effpi/internal/mucalc"
	"effpi/internal/typelts"
	"effpi/internal/types"
	"effpi/internal/verify"
)

// TestRaceDeliversEitherChannel reproduces the §6 discussion: in the
// racing composition, either y or z may replace the receiver's parameter
// — the LTS must contain a communication for each, and the continuation
// after each one uses the delivered channel.
func TestRaceDeliversEitherChannel(t *testing.T) {
	s := Race()
	// x stays internal (the race is a synchronisation); y and z are
	// observable so the winner's continuation output is visible.
	sem := &typelts.Semantics{Env: s.Env, Observable: map[string]bool{"y": true, "z": true}, WitnessOnly: true}
	m, err := lts.Explore(sem, s.Type, lts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	delivered := map[string]bool{}
	for _, l := range m.Alphabet() {
		if c, ok := l.(typelts.Comm); ok {
			if p, ok := c.Payload.(types.Var); ok {
				delivered[p.Name] = true
			}
		}
	}
	if !delivered["y"] || !delivered["z"] {
		t.Errorf("the race must deliver both y and z; got %v", delivered)
	}
	// After either delivery, the winner is used: outputs on y and z
	// appear in the alphabet (the loser's send stays pending — the race
	// leaves one sender unserved, which is exactly the non-confluence).
	// Uo(c) is non-empty over the alphabet exactly when the compiled
	// non-usage formula □(−Uo(c))⊤ does not simplify to ⊤.
	for _, c := range []string{"y", "z"} {
		phi, err := verify.Compile(s.Env, m, verify.Property{Kind: verify.NonUsage, Channels: []string{c}})
		if err != nil {
			t.Fatal(err)
		}
		if _, vacuous := mucalc.Simplify(phi).(mucalc.True); vacuous {
			t.Errorf("the received channel %s must be used in the continuation", c)
		}
	}
}

// enterExit extracts the enter (Int payload) and exit (Str payload)
// action sets of worker i's critical-section probe channel.
func enterExit(m *lts.LTS, i int) (enter, exit mucalc.ActionSet) {
	name := fmt.Sprintf("crit%d", i)
	var enters, exits []typelts.Label
	for _, l := range m.Alphabet() {
		o, ok := l.(typelts.Output)
		if !ok {
			continue
		}
		v, ok := o.Subject.(types.Var)
		if !ok || v.Name != name {
			continue
		}
		switch o.Payload.(type) {
		case types.Int:
			enters = append(enters, l)
		case types.Str:
			exits = append(exits, l)
		}
	}
	return mucalc.LabelSet("enter"+name, enters...), mucalc.LabelSet("exit"+name, exits...)
}

// mutualExclusion builds the custom formula
// □(enter_i ⇒ X((−enter_j) U exit_i)) for all i ≠ j — not one of the six
// Fig. 7 schemas, showing the extensible property language the paper
// claims (§6: "an extensible set of µ-calculus properties").
func mutualExclusion(m *lts.LTS, workers int) mucalc.Formula {
	var phi mucalc.Formula = mucalc.True{}
	for i := 0; i < workers; i++ {
		enterI, exitI := enterExit(m, i)
		var othersEnter []mucalc.ActionSet
		for j := 0; j < workers; j++ {
			if j != i {
				e, _ := enterExit(m, j)
				othersEnter = append(othersEnter, e)
			}
		}
		blocked := othersEnter[0]
		for _, o := range othersEnter[1:] {
			blocked = mucalc.UnionSet(blocked, o)
		}
		clause := mucalc.Box(mucalc.Implies(
			mucalc.Prop{Set: enterI},
			mucalc.Next{F: mucalc.Until{
				L: mucalc.NegProp{Set: blocked},
				R: mucalc.Prop{Set: exitI},
			}},
		))
		if _, ok := phi.(mucalc.True); ok {
			phi = clause
		} else {
			phi = mucalc.And{L: phi, R: clause}
		}
	}
	return phi
}

func exploreWithCrits(t *testing.T, s *System, workers int) *lts.LTS {
	t.Helper()
	obs := map[string]bool{}
	for i := 0; i < workers; i++ {
		obs[fmt.Sprintf("crit%d", i)] = true
	}
	sem := &typelts.Semantics{Env: s.Env, Observable: obs, WitnessOnly: true}
	m, err := lts.Explore(sem, s.Type, lts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMutexMutualExclusion: the lock-guarded workers satisfy mutual
// exclusion.
func TestMutexMutualExclusion(t *testing.T) {
	for _, workers := range []int{2, 3} {
		s := Mutex(workers)
		m := exploreWithCrits(t, s, workers)
		phi := mutualExclusion(m, workers)
		r := mucalc.Check(m, phi)
		if !r.Holds {
			t.Errorf("%s: mutual exclusion must hold; counterexample %+v", s.Name, r.Counterexample)
		}
	}
}

// TestBrokenMutexViolates: removing the lock lets critical sections
// overlap, and the checker finds the interleaving.
func TestBrokenMutexViolates(t *testing.T) {
	const workers = 2
	env := types.NewEnv()
	for i := 0; i < workers; i++ {
		env = env.MustExtend(fmt.Sprintf("crit%d", i), types.ChanIO{Elem: types.Union{L: types.Int{}, R: types.Str{}}})
	}
	var comps []types.Type
	for i := 0; i < workers; i++ {
		crit := fmt.Sprintf("crit%d", i)
		comps = append(comps, types.Rec{Var: "t", Body: out(crit, types.Int{},
			out(crit, types.Str{}, types.RecVar{Name: "t"}))})
	}
	s := &System{Name: "broken mutex", Env: env, Type: types.ParOf(comps...)}
	m := exploreWithCrits(t, s, workers)
	phi := mutualExclusion(m, workers)
	r := mucalc.Check(m, phi)
	if r.Holds {
		t.Error("unguarded critical sections must violate mutual exclusion")
	}
	if r.Counterexample == nil {
		t.Error("expected an interleaving counterexample")
	}
}

// TestMutexDeadlockFree: the single-token mutex protocol never deadlocks.
func TestMutexDeadlockFree(t *testing.T) {
	s := Mutex(2)
	o, err := verify.Verify(verify.Request{Env: s.Env, Type: s.Type,
		Property: verify.Property{Kind: verify.DeadlockFree, Channels: []string{"crit0", "crit1"}}})
	if err != nil {
		t.Fatal(err)
	}
	if !o.Holds {
		t.Errorf("mutex must be deadlock-free: %+v", o.Counterexample)
	}
}
