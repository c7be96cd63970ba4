package typelts

import (
	"testing"

	"effpi/internal/types"
)

// TestPortsHostileSubjects covers the subjects the port summary must
// send to the wildcard: each case pairs an output on one subject with
// an input on another, and the filter must keep the pair (MaySync).
// Cases marked syncs do synchronise, so a filter that compared their
// subjects by ID alone would drop a real step; the others pin the
// wildcard rule itself. Making every variable subject exact breaks the
// first four cases, and making every subject exact breaks all six.
func TestPortsHostileSubjects(t *testing.T) {
	env := types.EnvOf(
		"w", types.ChanIO{Elem: types.Int{}},
		"x", types.ChanIO{Elem: types.Int{}},
		"v", tvar("w"), // a variable bound to a variable
		"u", types.Union{L: tvar("w"), R: tvar("v")}, // a variable bound to a union
		"top", types.Top{}, // a variable bound to ⊤
	)
	cio := types.ChanIO{Elem: types.Int{}}
	cases := []struct {
		name    string
		out, in types.Type
		syncs   bool
	}{
		{"variable bound to a variable", tvar("w"), tvar("v"), true},
		{"variable bound to a union", tvar("u"), tvar("w"), true},
		{"variable bound to ⊤", tvar("top"), tvar("x"), false},
		{"variable absent from Γ", tvar("ghost"), tvar("x"), false},
		{"non-variable cio[int] subject", cio, tvar("w"), true},
		{"a variable's bound meets a non-variable subject", tvar("w"), cio, true},
	}
	for _, tc := range cases {
		sem := &Semantics{Env: env, WitnessOnly: true, Cache: NewCache(env, true)}
		in := sem.Cache.Interner()
		sender := in.Intern(types.Out{Ch: tc.out, Payload: types.Int{}, Cont: types.Thunk(types.Nil{})})
		receiver := in.Intern(types.In{Ch: tc.in, Cont: types.Pi{Var: "n", Dom: types.Int{}, Cod: types.Nil{}}})
		if got := len(sem.SyncSteps(sender, receiver)) > 0; got != tc.syncs {
			t.Errorf("%s: SyncSteps non-empty = %v, want %v", tc.name, got, tc.syncs)
		}
		if !MaySync(&sem.Component(sender).Ports, &sem.Component(receiver).Ports) {
			t.Errorf("%s: the port filter drops the pair", tc.name)
		}
	}
}

// TestPortsExactSubjects checks the summary of channel-bound variable
// subjects: they are kept by ID, so distinct channels never meet and
// the same channel always does.
func TestPortsExactSubjects(t *testing.T) {
	env := pingPongEnv()
	sem := &Semantics{Env: env, WitnessOnly: true, Cache: NewCache(env, true)}
	in := sem.Cache.Interner()
	comps := types.FlattenPar(pingPongType())
	pinger := sem.Component(in.Intern(comps[0]))
	ponger := sem.Component(in.Intern(comps[1]))
	z := in.Intern(tvar("z"))
	if p := pinger.Ports; !p.HasOut || p.HasIn || p.OutWild || len(p.Outs) != 1 || p.Outs[0] != z {
		t.Errorf("pinger ports %+v, want one exact output on z", p)
	}
	if p := ponger.Ports; p.HasOut || !p.HasIn || p.InWild || len(p.Ins) != 1 || p.Ins[0] != z {
		t.Errorf("ponger ports %+v, want one exact input on z", p)
	}
	if !MaySync(&pinger.Ports, &ponger.Ports) {
		t.Error("an output and an input on z must be kept")
	}
	if MaySync(&ponger.Ports, &pinger.Ports) {
		t.Error("the ponger has no output: the reversed pair must be dropped")
	}
	// After τ[z,z] the pinger inputs on y and the ponger outputs on y.
	next := sem.SyncSteps(pinger.ID, ponger.ID)
	if len(next) != 1 || len(next[0].Next) != 2 {
		t.Fatalf("τ[z,z] successors %v, want two components", next)
	}
	a, b := sem.Component(next[0].Next[0]), sem.Component(next[0].Next[1])
	if !MaySync(&b.Ports, &a.Ports) || MaySync(&a.Ports, &pinger.Ports) {
		t.Errorf("y-pair ports %+v / %+v: want only the output on y to meet the input on y", a.Ports, b.Ports)
	}
}
