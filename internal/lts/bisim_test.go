package lts

import (
	"testing"

	"effpi/internal/typelts"
	"effpi/internal/types"
)

func bisimEnv() *types.Env {
	return types.EnvOf(
		"x", types.ChanIO{Elem: types.Int{}},
		"y", types.ChanIO{Elem: types.Int{}},
	)
}

func outLoop(ch string) types.Type {
	return types.Rec{Var: "t", Body: types.Out{Ch: types.Var{Name: ch}, Payload: types.Int{},
		Cont: types.Thunk(types.RecVar{Name: "t"})}}
}

func TestBisimilarUnfolding(t *testing.T) {
	env := bisimEnv()
	rec := outLoop("x")
	ok, err := TypesBisimilar(env, rec, types.Unfold(rec), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("µt.T must be bisimilar to its unfolding")
	}
}

func TestBisimilarParCongruence(t *testing.T) {
	env := bisimEnv()
	a := outLoop("x")
	// p[T, nil] ~ T and p[T,U] ~ p[U,T].
	ok, err := TypesBisimilar(env, types.Par{L: a, R: types.Nil{}}, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("p[T,nil] must be bisimilar to T")
	}
	b := outLoop("y")
	ok, err = TypesBisimilar(env, types.Par{L: a, R: b}, types.Par{L: b, R: a}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("p[T,U] must be bisimilar to p[U,T]")
	}
}

func TestNotBisimilarDifferentChannels(t *testing.T) {
	env := bisimEnv()
	ok, err := TypesBisimilar(env, outLoop("x"), outLoop("y"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("loops on different channels must not be bisimilar")
	}
}

func TestNotBisimilarChoiceVsCommitment(t *testing.T) {
	env := bisimEnv()
	// x⟨int⟩ + internal choice vs committed output: the classic
	// a.(b+c) vs a.b + a.c distinction, built with unions.
	sendThen := func(then types.Type) types.Type {
		return types.Out{Ch: types.Var{Name: "x"}, Payload: types.Int{}, Cont: types.Thunk(then)}
	}
	outY := types.Out{Ch: types.Var{Name: "y"}, Payload: types.Int{}, Cont: types.Thunk(types.Nil{})}
	outX := types.Out{Ch: types.Var{Name: "x"}, Payload: types.Int{}, Cont: types.Thunk(types.Nil{})}

	// T1 = x⟨⟩.(y⟨⟩ ∨ x⟨⟩): choice after the prefix.
	t1 := sendThen(types.Union{L: outY, R: outX})
	// T2 = (x⟨⟩.y⟨⟩) ∨ (x⟨⟩.x⟨⟩): choice before the prefix.
	t2 := types.Union{L: sendThen(outY), R: sendThen(outX)}
	ok, err := TypesBisimilar(env, t1, t2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("a.(b∨c) and (a.b)∨(a.c) must be distinguished by strong bisimilarity")
	}
}

func TestBisimilarTerminationKinds(t *testing.T) {
	env := bisimEnv()
	// A terminated process (✔-loop) is not bisimilar to a stuck one
	// (⊠-loop): the completion kind is observable.
	done := types.Nil{}
	stuck := types.Out{Ch: types.Var{Name: "x"}, Payload: types.Int{}, Cont: types.Thunk(types.Nil{})}
	sem := &typelts.Semantics{Env: env, Observable: map[string]bool{}} // closed: the output is stuck
	m1, err := Explore(sem, done, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Explore(sem, stuck, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if Bisimilar(m1, m2) {
		t.Error("✔ and ⊠ completions must be distinguished")
	}
	if !Bisimilar(m1, m1) || !Bisimilar(m2, m2) {
		t.Error("bisimilarity must be reflexive")
	}
}

// TestBisimilarQuotientSizes cross-checks the refiner against the
// bisimilarity corpus from the other direction: a type and its unfolding
// explore to different LTSs whose joint quotient must put the two roots
// in one block (Bisimilar true) while separating e.g. loops on different
// channels.
func TestBisimilarQuotientSizes(t *testing.T) {
	env := types.EnvOf(
		"x", types.ChanIO{Elem: types.Int{}},
		"y", types.ChanIO{Elem: types.Int{}},
	)
	loop := func(ch string) types.Type {
		return types.Rec{Var: "t", Body: types.Out{Ch: types.Var{Name: ch}, Payload: types.Int{},
			Cont: types.Thunk(types.RecVar{Name: "t"})}}
	}
	ok, err := TypesBisimilar(env, loop("x"), types.Unfold(loop("x")), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("µt.T must be bisimilar to its unfolding under the refiner")
	}
	ok, err = TypesBisimilar(env, loop("x"), loop("y"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("loops on different channels must not be bisimilar")
	}
}
