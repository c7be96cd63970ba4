package verify

import (
	"fmt"
	"strings"

	"effpi/internal/lts"
	"effpi/internal/mucalc"
	"effpi/internal/typelts"
	"effpi/internal/types"
)

// This file defines the action sets the Fig. 7 schemas are built from —
// the input/output uses of Def. 4.8, the imprecise synchronisations Aτ
// of Thm. 4.10 and the exact-subject sets of Fig. 7 — each exactly once,
// as a membership predicate over labels. The schema compiler restricts
// every set to the alphabet AΓ(T) of the explored LTS when one is known
// (Uses.set); with no alphabet — on-the-fly checking, which compiles
// before it explores — the predicates are evaluated per label as the
// checker meets it. Both forms hold the same labels of any alphabet, so
// verdicts never depend on which one a pipeline uses.
//
// Synchronisation labels τ[S,S′] count as an output use of S and an input
// use of S′: a communication is an output that met an input. This mirrors
// the paper's mCRL2 encoding into CCS without restriction, where the two
// halves of a synchronisation remain visible; without it, every liveness
// property would be vacuously false on closed compositions (whose runs
// consist solely of synchronisations).

// Uses instantiates the action sets for one environment, restricted to
// the alphabet of an explored LTS when one is known.
type Uses struct {
	env *types.Env
	// alphabet is AΓ(T) of the explored LTS, or nil before exploration:
	// the sets then stay predicates.
	alphabet []typelts.Label
}

// NewUses instantiates the action sets of env over the alphabet of m.
func NewUses(env *types.Env, m *lts.LTS) *Uses {
	return &Uses{env: env, alphabet: m.Alphabet()}
}

// set restricts a to its members in the alphabet, when one is known. The
// restricted set knows its size, so the checker skips a clause that an
// empty one makes vacuous (mucalc.ActionSet.Empty).
func (u *Uses) set(a mucalc.ActionSet) mucalc.ActionSet {
	if u.alphabet == nil {
		return a
	}
	return mucalc.LabelSet(a.Name, u.members(a)...)
}

// members lists the labels of the (known) alphabet that a contains, in
// alphabet order.
func (u *Uses) members(a mucalc.ActionSet) []typelts.Label {
	var in []typelts.Label
	for _, l := range u.alphabet {
		if a.Contains(l) {
			in = append(in, l)
		}
	}
	return in
}

// sent returns the channel a label sends on and what it sends: an
// output's subject, or a communication's sender.
func sent(l typelts.Label) (subject, payload types.Type, ok bool) {
	switch l := l.(type) {
	case typelts.Output:
		return l.Subject, l.Payload, true
	case typelts.Comm:
		return l.Sender, l.Payload, true
	}
	return nil, nil, false
}

// received returns the channel a label receives on and what it
// receives: an input's subject, or a communication's receiver.
func received(l typelts.Label) (subject, payload types.Type, ok bool) {
	switch l := l.(type) {
	case typelts.Input:
		return l.Subject, l.Payload, true
	case typelts.Comm:
		return l.Receiver, l.Payload, true
	}
	return nil, nil, false
}

// inputUses is UiΓ,T(x): the labels that might be fired when a process
// uses x for input — inputs S(U′) and communications τ[·,S′:U′] with
// Γ ⊢ x ⩽ S (accounting for imprecise typing, Ex. 3.5).
func inputUses(env *types.Env, x string) mucalc.ActionSet {
	xv := types.Var{Name: x}
	return mucalc.ActionSet{
		Name: "Ui(" + x + ")",
		Contains: func(l typelts.Label) bool {
			subject, _, ok := received(l)
			return ok && types.Subtype(env, xv, subject)
		},
	}
}

// outputUses is UoΓ,T(x1..xn): the output analogue of inputUses, for
// any of the probed channels.
func outputUses(env *types.Env, channels []string) mucalc.ActionSet {
	vars := make([]types.Type, len(channels))
	for i, x := range channels {
		vars[i] = types.Var{Name: x}
	}
	return mucalc.ActionSet{
		Name: "Uo(" + strings.Join(channels, ",") + ")",
		Contains: func(l typelts.Label) bool {
			subject, _, ok := sent(l)
			if !ok {
				return false
			}
			for _, xv := range vars {
				if types.Subtype(env, xv, subject) {
					return true
				}
			}
			return false
		},
	}
}

// impreciseTaus is the set Aτ of Thm. 4.10: synchronisation labels
// τ[S,S′] where S or S′ is not a variable of Γ. Such a communication
// cannot be traced to concrete channels, so liveness arguments must not
// rely on runs containing it.
func impreciseTaus(env *types.Env) mucalc.ActionSet {
	isEnvVar := func(t types.Type) bool {
		v, ok := t.(types.Var)
		return ok && env.Has(v.Name)
	}
	return mucalc.ActionSet{
		Name: "Aτ",
		Contains: func(l typelts.Label) bool {
			c, ok := l.(typelts.Comm)
			return ok && (!isEnvVar(c.Sender) || !isEnvVar(c.Receiver))
		},
	}
}

// exactIO is {xi(U′), xi⟨U′⟩}: the labels receiving or sending on
// exactly one of the probed variables, free or synchronised.
func exactIO(channels []string) mucalc.ActionSet {
	return mucalc.ActionSet{
		Name: "io(" + strings.Join(channels, ",") + ")",
		Contains: func(l typelts.Label) bool {
			in, _, _ := received(l)
			out, _, _ := sent(l)
			return isAnyVar(in, channels) || isAnyVar(out, channels)
		},
	}
}

// exactInputs is {x(U′) | any U′}: the labels receiving on exactly the
// variable x — inputs x(U′) and communications τ[·,x:U′].
func exactInputs(x string) mucalc.ActionSet {
	return mucalc.ActionSet{
		Name: "in(" + x + ")",
		Contains: func(l typelts.Label) bool {
			subject, _, _ := received(l)
			return isVarNamed(subject, x)
		},
	}
}

// exactOutputs is {xi⟨U′⟩ | any U′}: the labels sending on exactly one
// of the variables — outputs xi⟨U′⟩ and communications τ[xi,·:U′].
func exactOutputs(channels ...string) mucalc.ActionSet {
	return mucalc.ActionSet{
		Name: "out(" + strings.Join(channels, ",") + ")",
		Contains: func(l typelts.Label) bool {
			subject, _, _ := sent(l)
			return isAnyVar(subject, channels)
		},
	}
}

// outputsCarrying is y⟨z⟩: the labels sending on exactly the variable y
// and carrying exactly the variable z, free or synchronised.
func outputsCarrying(y, z string) mucalc.ActionSet {
	return mucalc.ActionSet{
		Name: fmt.Sprintf("%s⟨%s⟩", y, z),
		Contains: func(l typelts.Label) bool {
			subject, payload, _ := sent(l)
			return isVarNamed(subject, y) && isVarNamed(payload, z)
		},
	}
}

func isVarNamed(t types.Type, name string) bool {
	v, ok := t.(types.Var)
	return ok && v.Name == name
}

func isAnyVar(t types.Type, names []string) bool {
	for _, n := range names {
		if isVarNamed(t, n) {
			return true
		}
	}
	return false
}
