package syntax

// The interned type LTS is well defined only if types with equal Canon
// forms have the same transitions: exploration identifies a state with
// its interned components, and typelts.Cache computes a component's
// steps from whichever type was interned first at its ID. This file
// checks that invariant of Fig. 6's semantics on the benchmark types
// and on their AC variants; FuzzCanonSteps checks it on parsed types.
// It lives here because this package reaches both the parser and the
// benchmark systems.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"effpi/internal/systems"
	"effpi/internal/typelts"
	"effpi/internal/types"
)

// acVariant returns a type that Canon renders like t but that is built
// differently: union leaves and parallel components are shuffled and
// regrouped (commuting and reassociating ∨ and ‖), parallel
// compositions and function codomains gain ‖ nil, and every binder is
// renamed to a fresh name. fresh numbers the new binder names.
func acVariant(t types.Type, rng *rand.Rand, fresh *int) types.Type {
	switch t := t.(type) {
	case types.Union:
		leaves := types.FlattenUnion(t)
		for i, l := range leaves {
			leaves[i] = acVariant(l, rng, fresh)
		}
		return regroup(leaves, rng, func(l, r types.Type) types.Type { return types.Union{L: l, R: r} })
	case types.Par:
		leaves := types.FlattenPar(t)
		if len(leaves) == 0 {
			return t
		}
		for i, l := range leaves {
			leaves[i] = acVariant(l, rng, fresh)
		}
		// A one-leaf composition keeps a nil, so that it does not turn
		// into its leaf and flatten into an enclosing union.
		for n := rng.Intn(2); n > 0 || len(leaves) == 1; n-- {
			leaves = append(leaves, types.Nil{})
		}
		return regroup(leaves, rng, func(l, r types.Type) types.Type { return types.Par{L: l, R: r} })
	case types.Pi:
		cod := t.Cod
		if t.Var != "" {
			x := freshName(fresh)
			cod = types.Subst(cod, t.Var, types.Var{Name: x})
			t.Var = x
		}
		t.Dom = acVariant(t.Dom, rng, fresh)
		t.Cod = withNil(acVariant(cod, rng, fresh), rng)
		return t
	case types.Rec:
		x := freshName(fresh)
		return types.Rec{Var: x, Body: acVariant(types.SubstRec(t.Body, t.Var, types.RecVar{Name: x}), rng, fresh)}
	default:
		return types.MapChildren(t, func(c types.Type) types.Type { return acVariant(c, rng, fresh) })
	}
}

func freshName(fresh *int) string {
	*fresh++
	return fmt.Sprintf("ρ%d", *fresh)
}

// withNil composes t with nil half of the time. It is applied only where
// the semantics reads a process and never inspects its shape.
func withNil(t types.Type, rng *rand.Rand) types.Type {
	if rng.Intn(2) == 0 {
		return types.Par{L: t, R: types.Nil{}}
	}
	return t
}

// regroup shuffles xs and folds it into a random binary tree of mk.
func regroup(xs []types.Type, rng *rand.Rand, mk func(l, r types.Type) types.Type) types.Type {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	var fold func([]types.Type) types.Type
	fold = func(xs []types.Type) types.Type {
		if len(xs) == 1 {
			return xs[0]
		}
		k := 1 + rng.Intn(len(xs)-1)
		return mk(fold(xs[:k]), fold(xs[k:]))
	}
	return fold(xs)
}

// stepMultiset renders t's transitions as the sorted list of
// (label key, Canon of the successor).
func stepMultiset(sem *typelts.Semantics, t types.Type) []string {
	steps := sem.Transitions(t)
	out := make([]string, len(steps))
	for i, st := range steps {
		out[i] = st.Label.Key() + " → " + types.Canon(st.Next)
	}
	slices.Sort(out)
	return out
}

// checkCanonSteps checks that the subterms of ty, and variants of each,
// that Canon renders alike have the same transitions under env, in both
// early-input modes: each subterm is held to the first subterm with its
// Canon form and to variants of that one. It returns how many Canon
// forms it checked.
func checkCanonSteps(t *testing.T, env *types.Env, ty types.Type, rng *rand.Rand, variants int) int {
	t.Helper()
	sems := []*typelts.Semantics{{Env: env, WitnessOnly: true}, {Env: env}}
	check := func(canon string, first, alt types.Type, want [][]string) {
		for i, sem := range sems {
			if got := stepMultiset(sem, alt); !slices.Equal(got, want[i]) {
				t.Fatalf("types rendered %s step differently (witness-only %v)\n%s:\n  %q\n%s:\n  %q", canon, sem.WitnessOnly, first, want[i], alt, got)
			}
		}
	}
	seen := map[string][][]string{}
	firsts := map[string]types.Type{}
	n := 0
	var walk func(types.Type)
	walk = func(sub types.Type) {
		types.EachChild(sub, func(c types.Type) bool { walk(c); return true })
		canon := types.Canon(sub)
		if want, ok := seen[canon]; ok {
			check(canon, firsts[canon], sub, want)
			return
		}
		want := make([][]string, len(sems))
		for i, sem := range sems {
			want[i] = stepMultiset(sem, sub)
		}
		seen[canon], firsts[canon] = want, sub
		n++
		fresh := 0
		for v := 0; v < variants; v++ {
			alt := withNil(acVariant(sub, rng, &fresh), rng)
			if got := types.Canon(alt); got != canon {
				t.Fatalf("variant %s of %s renders %s, want %s", alt, sub, got, canon)
			}
			check(canon, sub, alt, want)
		}
	}
	walk(ty)
	return n
}

// TestCanonEqualSameSteps checks the invariant over every subterm of the
// Fig. 9, Large and random-corpus types, four AC variants each.
func TestCanonEqualSameSteps(t *testing.T) {
	rows := append(systems.Fig9Systems(), systems.LargeSystems()...)
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	rows = append(rows, systems.RandomSystems(seeds)...)
	rng := rand.New(rand.NewSource(1))
	total := 0
	for _, s := range rows {
		total += checkCanonSteps(t, s.Env, s.Type, rng, 4)
	}
	t.Logf("%d subterms checked", total)
}
