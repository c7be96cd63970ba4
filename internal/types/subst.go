package types

import (
	"fmt"
	"sync/atomic"
)

var freshCounter atomic.Uint64

// FreshName returns a name, derived from base, that has not been returned
// before in this process. It implements the Barendregt convention used
// throughout the paper: bound variables are kept distinct by renaming.
func FreshName(base string) string {
	n := freshCounter.Add(1)
	return fmt.Sprintf("%s%%%d", base, n)
}

// Subst returns t with every free occurrence of the term variable x (as a
// type, Var{x}) replaced by s: the type-level substitution T{S/x} of
// Def. 3.1. The substitution is capture-avoiding: Π-binders whose variable
// occurs free in s are α-renamed first.
func Subst(t Type, x string, s Type) Type {
	if !OccursFree(t, x) {
		return t
	}
	return subst(t, x, s)
}

// OccursFree reports whether the term variable x occurs free in t:
// x ∈ fv(t), without building the set.
func OccursFree(t Type, x string) bool {
	switch t := t.(type) {
	case Var:
		return t.Name == x
	case Pi:
		if t.Var == x {
			return OccursFree(t.Dom, x)
		}
	}
	return !EachChild(t, func(c Type) bool { return !OccursFree(c, x) })
}

func subst(t Type, x string, s Type) Type {
	switch u := t.(type) {
	case Var:
		if u.Name == x {
			return s
		}
		return t
	case Pi:
		if u.Var == x {
			// x is shadowed in the codomain.
			return Pi{Var: u.Var, Dom: subst(u.Dom, x, s), Cod: u.Cod}
		}
		if u.Var != "" && OccursFree(s, u.Var) {
			fresh := FreshName(u.Var)
			t = Pi{Var: fresh, Dom: u.Dom, Cod: subst(u.Cod, u.Var, Var{Name: fresh})}
		}
	}
	return MapChildren(t, func(c Type) Type { return subst(c, x, s) })
}

// SubstRec returns t with every free occurrence of the recursion variable
// name replaced by s. It is used to unfold µ-types. Like Subst it is
// capture-avoiding: a Π- or µ-binder of t that would capture a free
// variable of s is renamed first, to the first name of the form x%n
// free in neither s nor the binder's scope, so the result does not
// depend on what was renamed before.
func SubstRec(t Type, name string, s Type) Type {
	switch u := t.(type) {
	case RecVar:
		if u.Name == name {
			return s
		}
	case Rec:
		if u.Var == name {
			return t
		}
		if occursFreeRec(s, u.Var) {
			y := unusedName(u.Var, func(y string) bool { return occursFreeRec(s, y) || occursFreeRec(u.Body, y) })
			t = Rec{Var: y, Body: SubstRec(u.Body, u.Var, RecVar{Name: y})}
		}
	case Pi:
		if u.Var != "" && OccursFree(s, u.Var) {
			y := unusedName(u.Var, func(y string) bool { return OccursFree(s, y) || OccursFree(u.Cod, y) })
			t = Pi{Var: y, Dom: u.Dom, Cod: Subst(u.Cod, u.Var, Var{Name: y})}
		}
	}
	return MapChildren(t, func(c Type) Type { return SubstRec(c, name, s) })
}

// occursFreeRec reports whether the recursion variable name occurs free
// in t.
func occursFreeRec(t Type, name string) bool {
	switch t := t.(type) {
	case RecVar:
		return t.Name == name
	case Rec:
		if t.Var == name {
			return false
		}
	}
	return !EachChild(t, func(c Type) bool { return !occursFreeRec(c, name) })
}

// unusedName returns the first of x%1, x%2, ... for which taken is false.
func unusedName(x string, taken func(string) bool) string {
	for n := 1; ; n++ {
		if y := fmt.Sprintf("%s%%%d", x, n); !taken(y) {
			return y
		}
	}
}

// Unfold performs one step of equi-recursive unfolding:
// µt.T ≡ T{µt.T/t}. Non-recursive types are returned unchanged.
func Unfold(t Type) Type {
	if r, ok := t.(Rec); ok {
		return SubstRec(r.Body, r.Var, r)
	}
	return t
}

// UnfoldAll unfolds top-level µ-binders until the head constructor is not
// a Rec. The limit guards against non-contractive types such as µt.t,
// which well-formedness rejects but malformed inputs may contain.
func UnfoldAll(t Type) Type {
	for i := 0; i < 64; i++ {
		r, ok := t.(Rec)
		if !ok {
			return t
		}
		t = SubstRec(r.Body, r.Var, r)
	}
	return t
}

// Apply performs the type-level application T S of Def. 3.1: if t is a
// dependent function type Π(x:U)T it returns T{S/x}; a thunk Π()T returns
// T unchanged. The boolean reports whether t was a Π-type.
func Apply(t Type, arg Type) (Type, bool) {
	p, ok := UnfoldAll(t).(Pi)
	if !ok {
		return nil, false
	}
	if p.Var == "" {
		return p.Cod, true
	}
	return Subst(p.Cod, p.Var, arg), true
}
