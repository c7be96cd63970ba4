// Package mucalc implements the linear-time µ-calculus fragment of
// Def. 4.6 as action-based linear temporal logic, together with a model
// checker for the formulas the Fig. 7 schemas compile to. A formula's
// top-level conjunction is split into clauses; each clause is one of four
// specification patterns (absence, universality, recurrence, response),
// whose negation has a Büchi automaton of fixed shape (pattern.go). Each
// automaton is composed with the type LTS and checked for emptiness with
// the nested depth-first search of Courcoubetis et al., stopping at the
// first clause that fails. EvalLasso decides any formula directly on a
// lasso-shaped word; it is the replay check of a counterexample.
//
// The paper's basic formulas are Z, ¬ϕ, ϕ∧ϕ, (α)ϕ and νZ.ϕ; all the
// derived forms actually used by the verification schemas of Fig. 7
// (⊤, ⊥, ∨, ⇒, (A)ϕ, (−A)ϕ, U, □, ♢) live in the LTL fragment, which is
// what this package implements. T |= ϕ means every complete run of T
// satisfies ϕ; the checker decides it by searching for a run of ¬ϕ.
package mucalc

import (
	"fmt"

	"effpi/internal/typelts"
)

// ActionSet is a (possibly infinite) set of transition labels, given
// semantically by a membership predicate. Name identifies the set:
// two sets with the same Name are treated as the same atom, so builders
// must give extensionally different sets different names.
type ActionSet struct {
	Name     string
	Contains func(l typelts.Label) bool
	// known/size let the checker detect a known-empty set (Empty): only
	// LabelSet-built sets know their cardinality.
	known bool
	size  int
}

// AnyAction is the full action set Act.
func AnyAction() ActionSet {
	return ActionSet{Name: "Act", Contains: func(typelts.Label) bool { return true }}
}

// TauActions is the set of internal actions {τ[∨]} ∪ {τ[S,S′]}.
func TauActions() ActionSet {
	return ActionSet{Name: "τ", Contains: typelts.IsTau}
}

// DoneActions is the singleton {✔}.
func DoneActions() ActionSet {
	return ActionSet{Name: "✔", Contains: func(l typelts.Label) bool {
		_, ok := l.(typelts.Done)
		return ok
	}}
}

// UnionSet is A ∪ B.
func UnionSet(a, b ActionSet) ActionSet {
	return ActionSet{
		Name:     "(" + a.Name + "∪" + b.Name + ")",
		Contains: func(l typelts.Label) bool { return a.Contains(l) || b.Contains(l) },
	}
}

// LabelSet builds a finite action set from explicit labels, keyed by
// label value so that a membership query renders no Key string.
//
// Precondition: the labels are distinct actions (no two share a Key),
// and the set is queried only with label values it was built from, or
// with labels outside them. Every production set is built from members
// of one LTS alphabet, which exploration has already deduplicated by
// interned LabelKey, and is queried only with that alphabet's labels. A
// label that equals a member by Key but not by value is not a member.
// Every Label and Type implementation is comparable, so a value key
// never panics.
func LabelSet(name string, labels ...typelts.Label) ActionSet {
	members := make(map[typelts.Label]bool, len(labels))
	for _, l := range labels {
		members[l] = true
	}
	return ActionSet{
		Name:     name,
		Contains: func(l typelts.Label) bool { return members[l] },
		known:    true,
		size:     len(members),
	}
}

// Empty reports whether the action set is known to be empty (only sets
// built by LabelSet from zero labels carry this information).
func (a ActionSet) Empty() bool { return a.known && a.size == 0 }

// Formula is an action-based LTL formula over ActionSet atoms.
type Formula interface {
	formula()
	Key() string
	String() string
}

// True accepts every run.
type True struct{}

// False accepts no run.
type False struct{}

// Prop holds at a position whose action is in Set.
type Prop struct{ Set ActionSet }

// NegProp holds at a position whose action is not in Set.
type NegProp struct{ Set ActionSet }

// Not is logical negation.
type Not struct{ F Formula }

// And is conjunction.
type And struct{ L, R Formula }

// Or is disjunction.
type Or struct{ L, R Formula }

// Next is the next-time operator X ϕ.
type Next struct{ F Formula }

// Until is ϕ1 U ϕ2 (strong until: ϕ2 eventually holds).
type Until struct{ L, R Formula }

// Release is ϕ1 R ϕ2, the dual of Until.
type Release struct{ L, R Formula }

func (True) formula()    {}
func (False) formula()   {}
func (Prop) formula()    {}
func (NegProp) formula() {}
func (Not) formula()     {}
func (And) formula()     {}
func (Or) formula()      {}
func (Next) formula()    {}
func (Until) formula()   {}
func (Release) formula() {}

func (True) Key() string      { return "⊤" }
func (False) Key() string     { return "⊥" }
func (p Prop) Key() string    { return "in:" + p.Set.Name }
func (p NegProp) Key() string { return "out:" + p.Set.Name }
func (n Not) Key() string     { return "¬(" + n.F.Key() + ")" }
func (a And) Key() string     { return "(" + a.L.Key() + "∧" + a.R.Key() + ")" }
func (o Or) Key() string      { return "(" + o.L.Key() + "∨" + o.R.Key() + ")" }
func (x Next) Key() string    { return "X(" + x.F.Key() + ")" }
func (u Until) Key() string   { return "(" + u.L.Key() + "U" + u.R.Key() + ")" }
func (r Release) Key() string { return "(" + r.L.Key() + "R" + r.R.Key() + ")" }

func (True) String() string      { return "⊤" }
func (False) String() string     { return "⊥" }
func (p Prop) String() string    { return "⟨" + p.Set.Name + "⟩" }
func (p NegProp) String() string { return "⟨−" + p.Set.Name + "⟩" }
func (n Not) String() string     { return "¬" + n.F.String() }
func (a And) String() string     { return "(" + a.L.String() + " ∧ " + a.R.String() + ")" }
func (o Or) String() string      { return "(" + o.L.String() + " ∨ " + o.R.String() + ")" }
func (x Next) String() string    { return "X " + x.F.String() }
func (u Until) String() string   { return "(" + u.L.String() + " U " + u.R.String() + ")" }
func (r Release) String() string { return "(" + r.L.String() + " R " + r.R.String() + ")" }

// --- Derived forms (Def. 4.6, "derived formulas") -------------------------

// Prefix is (A)ϕ: the run's first action is in A, and ϕ holds afterwards.
func Prefix(a ActionSet, f Formula) Formula {
	return And{L: Prop{Set: a}, R: nextOf(f)}
}

// PrefixCo is (−A)ϕ: the first action is outside A, and ϕ holds afterwards.
func PrefixCo(a ActionSet, f Formula) Formula {
	return And{L: NegProp{Set: a}, R: nextOf(f)}
}

func nextOf(f Formula) Formula {
	if _, ok := f.(True); ok {
		return True{} // X⊤ ≡ ⊤ on infinite (completed) runs
	}
	return Next{F: f}
}

// Box is □ϕ ≡ ⊥ R ϕ.
func Box(f Formula) Formula { return Release{L: False{}, R: f} }

// Diamond is ♢ϕ ≡ ⊤ U ϕ.
func Diamond(f Formula) Formula { return Until{L: True{}, R: f} }

// Implies is ϕ1 ⇒ ϕ2, written ¬ϕ1 ∨ ϕ2 with the negation pushed onto
// the atoms of ϕ1.
func Implies(a, b Formula) Formula { return Or{L: negate(a), R: b} }

// negate returns a formula equivalent to ¬f, pushing the negation through
// every connective by De Morgan's laws and the LTL dualities; on a
// formula in negation normal form the result is in it too.
func negate(f Formula) Formula {
	switch f := f.(type) {
	case True:
		return False{}
	case False:
		return True{}
	case Prop:
		return NegProp{Set: f.Set}
	case NegProp:
		return Prop{Set: f.Set}
	case Not:
		return f.F
	case And:
		return Or{L: negate(f.L), R: negate(f.R)}
	case Or:
		return And{L: negate(f.L), R: negate(f.R)}
	case Next:
		return Next{F: negate(f.F)}
	case Until:
		return Release{L: negate(f.L), R: negate(f.R)}
	case Release:
		return Until{L: negate(f.L), R: negate(f.R)}
	default:
		panic(fmt.Sprintf("mucalc: unknown formula %T", f))
	}
}
