package verify

import (
	"fmt"

	"effpi/internal/lts"
	"effpi/internal/mucalc"
	"effpi/internal/typelts"
	"effpi/internal/types"
)

// Compile builds the right-hand-column formula of Fig. 7 for the
// requested property, instantiated with the action sets of Def. 4.8
// restricted to the alphabet of m.
func Compile(env *types.Env, m *lts.LTS, p Property) (mucalc.Formula, error) {
	return compile(env, m.Alphabet(), p)
}

// compile builds p's Fig. 7 formula from the action sets of uses.go,
// each restricted to the alphabet when one is known. With a nil
// alphabet the sets stay predicates, which is what lets the on-the-fly
// engine compile before it explores; only NonUsage, DeadlockFree and
// Reactive compile that way. Forwarding and Responsive shape their
// formula around the payload variables received in the alphabet, and
// EventualOutput is not LTL, so those report an error.
//
// A schema that forbids imprecise synchronisation puts that conjunct,
// □(−Aτ)⊤, on the left of its top-level ∧ and its main obligation on
// the right, which the checker takes first (mucalc.CheckModelContext).
// Every conjunct is one of the checker's four clause patterns.
func compile(env *types.Env, alphabet []typelts.Label, p Property) (mucalc.Formula, error) {
	u := &Uses{env: env, alphabet: alphabet}
	switch p.Kind {
	case NonUsage:
		// Fig. 7(1): □(¬(∨i (UoΓ,T(xi))⊤)) — no position fires a
		// potential output use of any probed channel.
		return mucalc.Box(mucalc.NegProp{Set: u.set(outputUses(env, p.Channels))}), nil
	case DeadlockFree:
		// Fig. 7(2): □(−Aτ)⊤ ∧ □((τ)⊤ ∨ ∨i ({xi(U′), xi⟨U′⟩})⊤), plus the
		// ✔ disjunct: proper termination is not a deadlock (DESIGN.md).
		return mucalc.And{L: u.noImprecision(), R: mucalc.Box(mucalc.Or{
			L: mucalc.Prop{Set: mucalc.TauActions()},
			R: mucalc.Or{L: mucalc.Prop{Set: u.set(exactIO(p.Channels))}, R: mucalc.Prop{Set: mucalc.DoneActions()}},
		})}, nil
	case EventualOutput:
		return nil, fmt.Errorf("verify: ev-usage is checked by reachability (EvUsageHolds), not LTL")
	case Forwarding:
		// Fig. 7(4): every z received on x is forwarded as y⟨z⟩.
		return u.obligation(p, func(z string) mucalc.ActionSet { return outputsCarrying(p.To, z) })
	case Reactive:
		// Fig. 7(5), read through its stated intent — "t runs forever,
		// and is always eventually able to receive inputs from x":
		// □(−Aτ)⊤ ∧ □♢({x(U′) | any U′})⊤. Every run performs inputs on x
		// infinitely often, with no imprecise synchronisation. (The
		// literal right-column disjunction □((τ)⊤ ∨ …) is vacuous on closed
		// compositions, whose positions are all τ; the □♢ form is the
		// linear-time counterpart of the left column's □((τ)⊤ U (x(w))⊤).)
		return mucalc.And{L: u.noImprecision(), R: mucalc.Box(mucalc.Diamond(mucalc.Prop{Set: u.set(exactInputs(p.From))}))}, nil
	case Responsive:
		// Fig. 7(6): every channel z received on x is used to send a
		// response, {z⟨U′⟩ | any U′}.
		return u.obligation(p, func(z string) mucalc.ActionSet { return exactOutputs(z) })
	default:
		return nil, fmt.Errorf("verify: unknown property kind %d", p.Kind)
	}
}

// noImprecision is □(−Aτ)⊤: no run contains an imprecise synchronisation.
func (u *Uses) noImprecision() mucalc.Formula {
	return mucalc.Box(mucalc.NegProp{Set: u.set(impreciseTaus(u.env))})
}

// obligation builds the schema shared by Fig. 7(4) and 7(6), which
// differ only in the set discharging the obligation of a received z:
//
//	T ↑Γ {x,…} |= □( ({S(z) | S(z) ∈ Ui(x)})⊤ ⇒ ((−(Aτ ∪ Ui(x)))⊤ U (discharge(z))⊤) )
//
// for every variable z received on x = p.From (a conjunction over the z
// occurring in the alphabet). The paper's caption reads (α)⊤ ⇒ ϕ as
// (α)⊤ ⇒ (α)ϕ: the until obligation starts after the input position.
func (u *Uses) obligation(p Property, discharge func(z string) mucalc.ActionSet) (mucalc.Formula, error) {
	if u.alphabet == nil {
		return nil, fmt.Errorf("verify: %s is shaped by the explored alphabet and has no on-the-fly formula", p.Kind)
	}
	// Ui(x) is restricted once, since its predicate runs a subtype check
	// per label; the trigger and block sets are built from its members.
	x := p.From
	ui := u.members(inputUses(u.env, x))
	seen := map[string]bool{}
	var zs []string
	for _, l := range ui {
		_, payload, _ := received(l)
		if v, ok := payload.(types.Var); ok && !seen[v.Name] {
			seen[v.Name] = true
			zs = append(zs, v.Name)
		}
	}
	if len(zs) == 0 {
		// Nothing is ever received on x as a trackable variable: the
		// obligation is vacuous only if x has no input uses at all;
		// inputs of unknown payloads cannot be proven discharged.
		if len(ui) == 0 {
			return mucalc.True{}, nil
		}
		return mucalc.False{}, nil
	}
	block := mucalc.LabelSet("Aτ∪Ui("+x+")", append(u.members(impreciseTaus(u.env)), ui...)...)
	var phi mucalc.Formula
	for _, z := range zs {
		// in(x,z): the input uses of x receiving exactly the variable z.
		var trigger []typelts.Label
		for _, l := range ui {
			if _, payload, _ := received(l); isVarNamed(payload, z) {
				trigger = append(trigger, l)
			}
		}
		clause := mucalc.Box(mucalc.Implies(
			mucalc.Prop{Set: mucalc.LabelSet(fmt.Sprintf("in(%s,%s)", x, z), trigger...)},
			mucalc.Next{F: mucalc.Until{
				L: mucalc.NegProp{Set: block},
				R: mucalc.Prop{Set: u.set(discharge(z))},
			}},
		))
		if phi == nil {
			phi = clause
		} else {
			phi = mucalc.And{L: phi, R: clause}
		}
	}
	return phi, nil
}

// EvUsageHolds implements Fig. 7(3) in the existential (branching-time)
// reading used by the paper's mCRL2 backend — footnote 3 notes mCRL2
// checks branching-time formulas: µZ.⟨∨i xi⟨U′⟩⟩⊤ ∨ ⟨−Aτ⟩Z, i.e. some
// output use of a probed channel is reachable along imprecision-free
// transitions. (The universal LTL reading is rarely wanted: any system
// with an unfair scheduler run that starves xi would fail it.)
func EvUsageHolds(u *Uses, m *lts.LTS, channels []string) bool {
	atau := u.set(impreciseTaus(u.env))
	target := u.set(exactOutputs(channels...))

	// Evaluate both set predicates once per distinct label of the dense
	// alphabet, then walk the edges with plain bool lookups.
	isTarget := make([]bool, len(m.Labels))
	isAtau := make([]bool, len(m.Labels))
	for i, l := range m.Labels {
		isTarget[i] = target.Contains(l)
		isAtau[i] = atau.Contains(l)
	}

	visited := make([]bool, m.Len())
	queue := []int{m.Initial}
	visited[m.Initial] = true
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, e := range m.Out(s) {
			if isTarget[e.Label] {
				return true
			}
			if isAtau[e.Label] {
				continue // runs through imprecise synchronisations don't count
			}
			if !visited[e.Dst] {
				visited[e.Dst] = true
				queue = append(queue, int(e.Dst))
			}
		}
	}
	return false
}
