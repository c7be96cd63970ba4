package verify

import (
	"testing"

	"effpi/internal/lts"
	"effpi/internal/typelts"
	"effpi/internal/types"
)

func tv(n string) types.Type { return types.Var{Name: n} }

// pongerType is Tpong z from Ex. 4.11:
// i[z, Π(replyTo: co[str]) o[replyTo, str, Π()nil]].
func pongerType() types.Type {
	return types.In{Ch: tv("z"),
		Cont: types.Pi{Var: "replyTo", Dom: types.ChanO{Elem: types.Str{}},
			Cod: types.Out{Ch: tv("replyTo"), Payload: types.Str{}, Cont: types.Thunk(types.Nil{})}}}
}

// TestEx411ResponsivePonger reproduces Ex. 4.11: ponger z is responsive
// on z — whenever a reply channel is received from z, it is eventually
// used to send a response. This is the *open-process* workflow: the
// environment (with the witness w of Thm. 4.10's footnote) interacts on
// z.
func TestEx411ResponsivePonger(t *testing.T) {
	env := types.EnvOf(
		"z", types.ChanIO{Elem: types.ChanO{Elem: types.Str{}}},
		"w", types.ChanO{Elem: types.Str{}}, // witness for the input domain
	)
	o, err := Verify(Request{Env: env, Type: pongerType(),
		Property: Property{Kind: Responsive, From: "z"}})
	if err != nil {
		t.Fatal(err)
	}
	if !o.Holds {
		t.Errorf("ponger must be responsive on z (Ex. 4.11); counterexample: %+v", o.Counterexample)
	}
}

// TestUnresponsiveAuditorStub reproduces the §1 discussion: an auditor
// typed In[aud, Π(a)End] receives one audit and terminates — composing it
// with a service that audits forever would lose audits. Its mailbox is
// not reactive (it does not run forever).
func TestUnresponsiveAuditorStub(t *testing.T) {
	env := types.EnvOf("aud", types.ChanIO{Elem: types.Str{}})
	oneShot := types.In{Ch: tv("aud"), Cont: types.Pi{Var: "a", Dom: types.Str{}, Cod: types.Nil{}}}
	o, err := Verify(Request{Env: env, Type: oneShot,
		Property: Property{Kind: Reactive, From: "aud"}})
	if err != nil {
		t.Fatal(err)
	}
	if o.Holds {
		t.Error("a single-shot auditor must not be reactive on aud")
	}
	// The looping auditor is reactive.
	looping := types.Rec{Var: "t", Body: types.In{Ch: tv("aud"),
		Cont: types.Pi{Var: "a", Dom: types.Str{}, Cod: types.RecVar{Name: "t"}}}}
	o, err = Verify(Request{Env: env, Type: looping,
		Property: Property{Kind: Reactive, From: "aud"}})
	if err != nil {
		t.Fatal(err)
	}
	if !o.Holds {
		t.Errorf("the looping auditor must be reactive on aud: %+v", o.Counterexample)
	}
}

func TestNonUsageHoldsWhenUnused(t *testing.T) {
	env := types.EnvOf(
		"x", types.ChanIO{Elem: types.Int{}},
		"y", types.ChanIO{Elem: types.Int{}},
	)
	// A process that only ever uses x.
	p := types.Rec{Var: "t", Body: types.Out{Ch: tv("x"), Payload: types.Int{},
		Cont: types.Thunk(types.RecVar{Name: "t"})}}
	o, err := Verify(Request{Env: env, Type: p,
		Property: Property{Kind: NonUsage, Channels: []string{"y"}}})
	if err != nil {
		t.Fatal(err)
	}
	if !o.Holds {
		t.Error("non-usage of y must hold for a process using only x")
	}
	o, err = Verify(Request{Env: env, Type: p,
		Property: Property{Kind: NonUsage, Channels: []string{"x"}}})
	if err != nil {
		t.Fatal(err)
	}
	if o.Holds {
		t.Error("non-usage of x must fail for a process using x")
	}
}

// TestNonUsageImprecision: Ex. 3.5's T2 — after let-binding, the channel
// type degrades to cio[int], which is a *potential* use of x, so
// non-usage of x must fail (the supertype closure of Def. 4.8).
func TestNonUsageImprecision(t *testing.T) {
	env := types.EnvOf("x", types.ChanIO{Elem: types.Int{}})
	t2 := types.Out{Ch: types.ChanIO{Elem: types.Int{}}, Payload: types.Int{},
		Cont: types.Thunk(types.Nil{})}
	// The output's subject cio[int] is a supertype of x̱, so it lands in
	// UoΓ,T(x). Under Y={x} the output subject is not a variable in Y and
	// is hidden, so exercise the set computation directly.
	sem := &typelts.Semantics{Env: env}
	m, err := lts.Explore(sem, t2, lts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if NewUses(env, m).set(outputUses(env, []string{"x"})).Empty() {
		t.Error("Uo(x) must include the imprecise output on cio[int]")
	}
}

func TestAdmissibleRejections(t *testing.T) {
	env := types.EnvOf("x", types.ChanIO{Elem: types.Int{}})
	cases := []struct {
		name string
		t    types.Type
	}{
		{"contains proc", types.Par{L: types.Proc{}, R: types.Nil{}}},
		{"unguarded recursion", types.Rec{Var: "t", Body: types.Par{L: types.RecVar{Name: "t"}, R: types.Nil{}}}},
		{"par under rec", types.Rec{Var: "t", Body: types.In{Ch: tv("x"),
			Cont: types.Pi{Var: "v", Dom: types.Int{},
				Cod: types.Par{L: types.RecVar{Name: "t"}, R: types.Nil{}}}}}},
		{"not a process type", types.Bool{}},
	}
	for _, c := range cases {
		if err := Admissible(env, c.t); err == nil {
			t.Errorf("%s: Admissible must reject %s", c.name, c.t)
		}
	}
}

func TestImpreciseTausBlockLiveness(t *testing.T) {
	// A communication whose sender subject is a channel *type* (not a
	// variable) is in Aτ; eventual usage must not rely on runs through it.
	env := types.EnvOf("x", types.ChanIO{Elem: types.Int{}})
	sys := types.Par{
		L: types.Out{Ch: types.ChanIO{Elem: types.Int{}}, Payload: types.Int{}, Cont: types.Thunk(
			types.Out{Ch: tv("x"), Payload: types.Int{}, Cont: types.Thunk(types.Nil{})})},
		R: types.In{Ch: tv("x"), Cont: types.Pi{Var: "v", Dom: types.Int{}, Cod: types.Nil{}}},
	}
	o, err := Verify(Request{Env: env, Type: sys,
		Property: Property{Kind: EventualOutput, Channels: []string{"x"}, Closed: true}})
	if err != nil {
		t.Fatal(err)
	}
	if o.Holds {
		t.Error("ev-usage must fail when the only path runs through an imprecise synchronisation")
	}
}

func TestObservablesForResponsiveAddsWitnesses(t *testing.T) {
	env := types.EnvOf(
		"z", types.ChanIO{Elem: types.ChanO{Elem: types.Str{}}},
		"w", types.ChanO{Elem: types.Str{}},
		"unrelated", types.ChanIO{Elem: types.Int{}},
	)
	obs, err := ObservablesFor(env, Property{Kind: Responsive, From: "z"})
	if err != nil {
		t.Fatal(err)
	}
	has := map[string]bool{}
	for _, x := range obs {
		has[x] = true
	}
	if !has["z"] || !has["w"] {
		t.Errorf("observables must include z and the witness w, got %v", obs)
	}
	if has["unrelated"] {
		t.Errorf("unrelated channels must not be observable, got %v", obs)
	}
}

func TestClosedObservablesEmpty(t *testing.T) {
	env := types.EnvOf("z", types.ChanIO{Elem: types.Int{}})
	obs, err := ObservablesFor(env, Property{Kind: Reactive, From: "z", Closed: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 0 {
		t.Errorf("closed mode must hide everything, got %v", obs)
	}
}

func TestUnknownProbeChannel(t *testing.T) {
	env := types.EnvOf("z", types.ChanIO{Elem: types.Int{}})
	_, err := Verify(Request{Env: env, Type: types.Nil{},
		Property: Property{Kind: Reactive, From: "nope"}})
	if err == nil {
		t.Error("probing an unbound channel must fail")
	}
}

func TestVerifyAllReusesLTS(t *testing.T) {
	env := types.EnvOf("x", types.ChanIO{Elem: types.Int{}})
	p := types.Rec{Var: "t", Body: types.Out{Ch: tv("x"), Payload: types.Int{},
		Cont: types.Thunk(types.RecVar{Name: "t"})}}
	props := []Property{
		{Kind: NonUsage, Channels: []string{"x"}, Closed: true},
		{Kind: EventualOutput, Channels: []string{"x"}, Closed: true},
		{Kind: DeadlockFree, Channels: []string{"x"}, Closed: true},
	}
	outcomes, err := VerifyAll(env, p, props, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 3 {
		t.Fatalf("expected 3 outcomes, got %d", len(outcomes))
	}
	if outcomes[0].LTS != outcomes[1].LTS || outcomes[1].LTS != outcomes[2].LTS {
		t.Error("closed properties with equal observables must share the explored LTS")
	}
	// Closed, output-only loop: deadlock-free (keeps firing), ev-usage...
	// under Y=∅ the output is hidden and cannot fire, so the process is
	// stuck: deadlock-free must FAIL and ev-usage must fail too.
	if outcomes[1].Holds {
		t.Error("ev-usage under closed mode must fail: the lone output has no partner")
	}
	if outcomes[2].Holds {
		t.Error("deadlock-free under closed mode must fail: the lone output is stuck")
	}
}

// TestVerifyAllReuseIsOrderInsensitive: two properties whose observable
// *sets* coincide but are enumerated in different orders (forwarding
// x→y vs y→x) must share one explored LTS — the reuse key sorts the
// observables before joining.
func TestVerifyAllReuseIsOrderInsensitive(t *testing.T) {
	env := types.EnvOf(
		"x", types.ChanIO{Elem: types.Int{}},
		"y", types.ChanIO{Elem: types.Int{}},
	)
	p := types.Rec{Var: "t", Body: types.In{Ch: tv("x"),
		Cont: types.Pi{Var: "v", Dom: types.Int{},
			Cod: types.Out{Ch: tv("y"), Payload: types.Int{}, Cont: types.Thunk(types.RecVar{Name: "t"})}}}}
	props := []Property{
		{Kind: Forwarding, From: "x", To: "y"}, // observables [x y]
		{Kind: Forwarding, From: "y", To: "x"}, // observables [y x] — same set
	}
	outcomes, err := VerifyAll(env, p, props, 0)
	if err != nil {
		t.Fatal(err)
	}
	if outcomes[0].LTS != outcomes[1].LTS {
		t.Error("equal observable sets in different orders must share the explored LTS")
	}
}

// miniPhilosophers builds a 2-philosopher / 2-fork system inline (the
// systems package depends on verify, so fixtures are restated here).
func miniPhilosophers() (*types.Env, types.Type, []Property) {
	unit := types.Unit{}
	env := types.EnvOf(
		"f0", types.ChanIO{Elem: unit},
		"f1", types.ChanIO{Elem: unit},
	)
	out := func(ch string, cont types.Type) types.Type {
		return types.Out{Ch: tv(ch), Payload: unit, Cont: types.Thunk(cont)}
	}
	in := func(ch, v string, cont types.Type) types.Type {
		return types.In{Ch: tv(ch), Cont: types.Pi{Var: v, Dom: unit, Cod: cont}}
	}
	fork := func(ch string) types.Type {
		return types.Rec{Var: "t", Body: out(ch, in(ch, "u", types.RecVar{Name: "t"}))}
	}
	phil := func(first, second string) types.Type {
		return types.Rec{Var: "t", Body: in(first, "u", in(second, "u2",
			out(first, out(second, types.RecVar{Name: "t"}))))}
	}
	sys := types.ParOf(fork("f0"), fork("f1"), phil("f0", "f1"), phil("f1", "f0"))
	props := []Property{
		{Kind: DeadlockFree, Closed: true},
		{Kind: EventualOutput, Channels: []string{"f0"}, Closed: true},
		{Kind: Forwarding, From: "f0", To: "f1", Closed: true},
		{Kind: NonUsage, Channels: []string{"f0"}, Closed: true},
		{Kind: Reactive, From: "f0", Closed: true},
		{Kind: Responsive, From: "f0", Closed: true},
	}
	return env, sys, props
}

// TestVerifyAllParallelismEquivalence runs the full six-property pipeline
// at Parallelism 1, 2 and 8 and asserts the observable results coincide
// exactly: verdicts, state counts, label alphabets and every CSR
// adjacency. This is the verify-layer face of the exploration
// determinism guarantee.
func TestVerifyAllParallelismEquivalence(t *testing.T) {
	env, sys, props := miniPhilosophers()
	base, err := VerifyAllWith(env, sys, props, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 8} {
		got, err := VerifyAllWith(env, sys, props, Options{Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if len(got) != len(base) {
			t.Fatalf("parallelism %d: %d outcomes, want %d", par, len(got), len(base))
		}
		for i := range base {
			b, g := base[i], got[i]
			if g.Holds != b.Holds {
				t.Errorf("parallelism %d / %s: verdict %v, serial says %v", par, g.Property, g.Holds, b.Holds)
			}
			if g.States != b.States {
				t.Errorf("parallelism %d / %s: %d states, serial has %d", par, g.Property, g.States, b.States)
			}
			if g.LTS.Len() != b.LTS.Len() {
				t.Errorf("parallelism %d / %s: LTS sizes differ", par, g.Property)
				continue
			}
			for s := 0; s < b.LTS.Len(); s++ {
				be, ge := b.LTS.Out(s), g.LTS.Out(s)
				if len(be) != len(ge) {
					t.Errorf("parallelism %d / %s: state %d out-degree differs", par, g.Property, s)
					continue
				}
				for k := range be {
					if be[k] != ge[k] || b.LTS.LabelOf(be[k]).Key() != g.LTS.LabelOf(ge[k]).Key() {
						t.Errorf("parallelism %d / %s: state %d edge %d differs", par, g.Property, s, k)
					}
				}
			}
		}
	}
}

// TestVerifyAllErrorContract checks the batch engine keeps the same error
// semantics at every width: outcomes up to the first failing property,
// and that property's wrapped error.
func TestVerifyAllErrorContract(t *testing.T) {
	env, sys, _ := miniPhilosophers()
	props := []Property{
		{Kind: DeadlockFree, Closed: true},
		{Kind: Reactive, From: "nope", Closed: true}, // unbound probe
		{Kind: NonUsage, Channels: []string{"f0"}, Closed: true},
	}
	for _, par := range []int{1, 4} {
		outcomes, err := VerifyAllWith(env, sys, props, Options{Parallelism: par})
		if err == nil {
			t.Fatalf("parallelism %d: unbound probe channel must fail", par)
		}
		if len(outcomes) != 1 {
			t.Errorf("parallelism %d: %d outcomes before the failure, want 1", par, len(outcomes))
		}
	}
}

func TestDeadlockFreeOpenOutput(t *testing.T) {
	// The same output-only loop verified OPEN on x keeps firing forever:
	// deadlock-free modulo {x} holds.
	env := types.EnvOf("x", types.ChanIO{Elem: types.Int{}})
	p := types.Rec{Var: "t", Body: types.Out{Ch: tv("x"), Payload: types.Int{},
		Cont: types.Thunk(types.RecVar{Name: "t"})}}
	o, err := Verify(Request{Env: env, Type: p,
		Property: Property{Kind: DeadlockFree, Channels: []string{"x"}}})
	if err != nil {
		t.Fatal(err)
	}
	if !o.Holds {
		t.Errorf("deadlock-free modulo {x} must hold for the open output loop: %+v", o.Counterexample)
	}
}
