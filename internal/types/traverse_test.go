package types_test

import (
	"fmt"
	"slices"
	"testing"

	"effpi/internal/systems"
	"effpi/internal/types"
)

// TestChildrenOfEveryConstructor lists one value of each of the 19 Type
// implementations with its immediate subterms in traversal order. A
// constructor EachChild or MapChildren misses, or visits out of order,
// fails here.
func TestChildrenOfEveryConstructor(t *testing.T) {
	a, b, c := types.Var{Name: "a"}, types.Int{}, types.Str{}
	cases := []struct {
		t    types.Type
		want []types.Type
	}{
		{types.Bool{}, nil},
		{types.Unit{}, nil},
		{types.Int{}, nil},
		{types.Str{}, nil},
		{types.Top{}, nil},
		{types.Bottom{}, nil},
		{types.Union{L: a, R: b}, []types.Type{a, b}},
		{types.Pi{Var: "x", Dom: a, Cod: b}, []types.Type{a, b}},
		{types.Rec{Var: "t", Body: a}, []types.Type{a}},
		{types.RecVar{Name: "t"}, nil},
		{a, nil},
		{types.ChanIO{Elem: a}, []types.Type{a}},
		{types.ChanI{Elem: a}, []types.Type{a}},
		{types.ChanO{Elem: a}, []types.Type{a}},
		{types.Proc{}, nil},
		{types.Nil{}, nil},
		{types.Out{Ch: a, Payload: b, Cont: c}, []types.Type{a, b, c}},
		{types.In{Ch: a, Cont: b}, []types.Type{a, b}},
		{types.Par{L: a, R: b}, []types.Type{a, b}},
	}
	kinds := map[string]bool{}
	for _, tc := range cases {
		kinds[fmt.Sprintf("%T", tc.t)] = true
		var got []types.Type
		types.EachChild(tc.t, func(c types.Type) bool { got = append(got, c); return true })
		if !slices.Equal(got, tc.want) {
			t.Errorf("EachChild(%T) = %v, want %v", tc.t, got, tc.want)
		}
		if len(tc.want) > 1 {
			n := 0
			if types.EachChild(tc.t, func(types.Type) bool { n++; return false }) || n != 1 {
				t.Errorf("EachChild(%T) did not stop at the first false (%d calls)", tc.t, n)
			}
		}
		// MapChildren must call f on the same subterms in the same order
		// and put each result back where it came from.
		var mapped []types.Type
		i := 0
		rebuilt := types.MapChildren(tc.t, func(c types.Type) types.Type {
			mapped = append(mapped, c)
			i++
			return types.RecVar{Name: fmt.Sprint(i)}
		})
		if !slices.Equal(mapped, tc.want) {
			t.Errorf("MapChildren(%T) visited %v, want %v", tc.t, mapped, tc.want)
		}
		got = nil
		types.EachChild(rebuilt, func(c types.Type) bool { got = append(got, c); return true })
		for j, c := range got {
			if c != (types.RecVar{Name: fmt.Sprint(j + 1)}) {
				t.Errorf("MapChildren(%T) put %v at position %d", tc.t, c, j)
			}
		}
		if fmt.Sprintf("%T", rebuilt) != fmt.Sprintf("%T", tc.t) || len(got) != len(tc.want) {
			t.Errorf("MapChildren(%T) rebuilt %T with %d children", tc.t, rebuilt, len(got))
		}
		if len(tc.want) == 0 && rebuilt != tc.t {
			t.Errorf("MapChildren(%T) changed a type without subterms: %v", tc.t, rebuilt)
		}
	}
	if len(kinds) != 19 {
		t.Errorf("the table covers %d Type implementations, want 19", len(kinds))
	}
}

// rowTypes returns every subterm of the Fig. 9 and Large rows' root
// types and environment bindings.
func rowTypes() []types.Type {
	var all []types.Type
	var add func(types.Type)
	add = func(t types.Type) {
		all = append(all, t)
		types.EachChild(t, func(c types.Type) bool { add(c); return true })
	}
	for _, s := range append(systems.Fig9Systems(), systems.LargeSystems()...) {
		add(s.Type)
		for _, n := range s.Env.Names() {
			b, _ := s.Env.Lookup(n)
			add(b)
		}
	}
	return all
}

func identity(t types.Type) types.Type { return types.MapChildren(t, identity) }

// TestTraversalInvariants checks, on every type of the benchmark rows,
// that mapping with the identity rebuilds an equal type, that the
// ordered free-variable walk and OccursFree agree with FreeVars, and
// that substituting a variable for itself changes nothing.
func TestTraversalInvariants(t *testing.T) {
	for _, ty := range rowTypes() {
		if got := identity(ty); got != ty || types.Canon(got) != types.Canon(ty) {
			t.Fatalf("identity map changed %s into %s", ty, got)
		}
		ordered, fv := types.FreeVarsInOrder(ty), types.FreeVars(ty)
		if len(ordered) != len(fv) {
			t.Fatalf("FreeVarsInOrder(%s) = %v, FreeVars = %v", ty, ordered, fv)
		}
		for _, x := range ordered {
			if !fv[x] {
				t.Fatalf("FreeVarsInOrder(%s) = %v, FreeVars = %v", ty, ordered, fv)
			}
		}
		for _, x := range append(ordered, "unused") {
			if types.OccursFree(ty, x) != fv[x] {
				t.Fatalf("OccursFree(%s, %s) = %v, FreeVars = %v", ty, x, !fv[x], fv)
			}
			if got := types.Subst(ty, x, types.Var{Name: x}); types.Canon(got) != types.Canon(ty) {
				t.Fatalf("Subst(%s, %s, %s) = %s", ty, x, x, got)
			}
		}
	}
}
