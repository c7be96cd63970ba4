package lts

import (
	"context"

	"effpi/internal/typelts"
	"effpi/internal/types"
)

// This file decides strong bisimilarity of type LTSs. It gives the
// repository an executable notion of behavioural type equivalence: two
// types are strongly bisimilar iff no µ-calculus formula over their
// action alphabet distinguishes them, so e.g. µ-unfolding and the ≡
// congruence laws can be validated semantically, and protocol
// refactorings can be checked behaviour-preserving.
//
// The decision procedure is the refine.go partition refiner run on the
// disjoint union of the two systems: the roots are bisimilar iff the
// coarsest stable partition puts them in one block. Labels are compared
// by Key (the two LTSs have independent dense alphabets, so their label
// indices are unified into joint classes first).

// Bisimilar reports whether the initial states of m1 and m2 are strongly
// bisimilar (labels compared by Key).
func Bisimilar(m1, m2 *LTS) bool {
	n1 := m1.Len()
	n := n1 + m2.Len()
	if n == 0 {
		return true
	}

	// Joint label classes: one dense class per distinct label key across
	// both alphabets. The map is lookup-only and filled in deterministic
	// (alphabet) order; class ids never depend on its iteration order.
	classIdx := make(map[string]int32, len(m1.Labels)+len(m2.Labels))
	classFor := func(lab typelts.Label) int32 {
		key := lab.Key()
		if c, ok := classIdx[key]; ok {
			return c
		}
		c := int32(len(classIdx))
		classIdx[key] = c
		return c
	}
	class1 := make([]int32, len(m1.Labels))
	for i, lab := range m1.Labels {
		class1[i] = classFor(lab)
	}
	class2 := make([]int32, len(m2.Labels))
	for i, lab := range m2.Labels {
		class2[i] = classFor(lab)
	}

	// Disjoint-union CSR: m2's states are shifted by n1, every edge is
	// rewritten to (joint class, shifted destination) once up front so
	// the refiner sees plain Edge slices.
	ustart := make([]int32, 1, n+1)
	uedges := make([]Edge, 0, m1.NumEdges()+m2.NumEdges())
	for s := 0; s < n1; s++ {
		for _, e := range m1.Out(s) {
			uedges = append(uedges, Edge{Label: class1[e.Label], Dst: e.Dst})
		}
		ustart = append(ustart, int32(len(uedges)))
	}
	for s := 0; s < m2.Len(); s++ {
		for _, e := range m2.Out(s) {
			uedges = append(uedges, Edge{Label: class2[e.Label], Dst: e.Dst + int32(n1)})
		}
		ustart = append(ustart, int32(len(uedges)))
	}

	blockOf, _ := refineCSR(n, func(s int) []Edge { return uedges[ustart[s]:ustart[s+1]] })
	return blockOf[m1.Initial] == blockOf[n1+m2.Initial]
}

// TypesBisimilar explores two types under the same semantics and decides
// their strong bisimilarity.
func TypesBisimilar(env *types.Env, a, b types.Type, opts Options) (bool, error) {
	return TypesBisimilarContext(context.Background(), env, a, b, opts)
}

// TypesBisimilarContext is TypesBisimilar with cancellable explorations.
func TypesBisimilarContext(ctx context.Context, env *types.Env, a, b types.Type, opts Options) (bool, error) {
	sem := &typelts.Semantics{Env: env}
	m1, err := ExploreContext(ctx, sem, a, opts)
	if err != nil {
		return false, err
	}
	m2, err := ExploreContext(ctx, sem, b, opts)
	if err != nil {
		return false, err
	}
	return Bisimilar(m1, m2), nil
}
