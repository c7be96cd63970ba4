package verify

// Exploration-time partial-order reduction (Options.PartialOrder): the
// verifier hands lts.Explore an ample-set filter (lts.POR) whose
// visibility predicate is built from the properties' own action sets
// (uses.go), so the exploration registers, per state, only a persistent
// subset of the enabled synchronisations. Ample sets only ever *drop*
// edges: every state and edge of the reduced LTS is a state and edge of
// the full one, so a FAIL witness found on the reduced space is already
// a concrete run and the replay oracle re-validates it directly, with no
// lifting stage (unlike symmetry reduction, which checks on orbit
// representatives).
//
// A property has a filter exactly when its formula compiles with no
// alphabet: NonUsage, DeadlockFree and Reactive, whose action sets give
// a sound visible-label set before exploration. The other schemas
// (Forwarding, Responsive — shaped by the payload variables found in
// the explored alphabet — and EventualOutput, which is not LTL) need
// the full exploration. Reactive carries an eventuality
// (Box(Diamond ...)), so its filter uses the strong cycle proviso
// (lts.POR.Liveness); the two safety schemas run with the weak queue
// proviso. Which explorations the reduction engages on is planBatch's
// routing rule.

import (
	"fmt"

	"effpi/internal/lts"
	"effpi/internal/typelts"
	"effpi/internal/types"
)

// PartialOrderMode selects exploration-time partial-order reduction.
type PartialOrderMode int

const (
	// PartialOrderOff explores every enabled transition (the reference
	// pipeline).
	PartialOrderOff PartialOrderMode = iota
	// PartialOrderOn explores an ample subset of the enabled transitions
	// per state, computed from the participating-component independence
	// relation of the type semantics with the properties' visible labels
	// excluded. Verdicts are identical to PartialOrderOff; every FAIL's
	// witness is a concrete run of the reduced (⊆ full) space,
	// re-validated by Replay. Where it engages is planBatch's routing rule.
	PartialOrderOn
)

var partialOrderNames = map[PartialOrderMode]string{
	PartialOrderOff: "off",
	PartialOrderOn:  "on",
}

func (m PartialOrderMode) String() string {
	if n, ok := partialOrderNames[m]; ok {
		return n
	}
	return fmt.Sprintf("PartialOrderMode(%d)", int(m))
}

// ParsePartialOrder resolves a partial-order mode name ("off", "on") as
// used by CLI flags and service request fields. Unknown names report
// the valid values.
func ParsePartialOrder(name string) (PartialOrderMode, error) {
	for m, n := range partialOrderNames {
		if n == name {
			return m, nil
		}
	}
	return PartialOrderOff, fmt.Errorf("verify: unknown partial-order mode %q (valid values: %s)", name, validModeNames(partialOrderNames))
}

// porFilter builds the ample-set filter of a property whose formula
// compiles with no alphabet (NonUsage, DeadlockFree, Reactive), or nil
// for the rest. The visible set contains exactly the labels whose
// presence or position a run of the property's formula can distinguish
// — every other label is stuttering the next-free formula cannot see:
//
//   - NonUsage(x̄): Box(¬ out-uses(x̄)) — violating labels are the
//     output uses of the probed channels (Def. 4.8).
//   - DeadlockFree(x̄): no imprecise synchronisation, and every action
//     is τ, an exact I/O on the probed channels, or ✔ — visible labels
//     are the imprecise τ's and anything outside that allowed set
//     (which includes ⊠; completion self-loops are added to edge-less
//     states after filtering and are never dropped).
//   - Reactive(x): no imprecise synchronisation, and in(x) is always
//     eventually enabled — visible labels are the imprecise τ's and the
//     exact inputs of x; the eventuality makes the filter use the
//     strong cycle proviso.
func porFilter(env *types.Env, p Property) *lts.POR {
	switch p.Kind {
	case NonUsage:
		return &lts.POR{Visible: outputUses(env, p.Channels).Contains}
	case DeadlockFree:
		imprecise := impreciseTaus(env)
		allowed := exactIO(p.Channels)
		return &lts.POR{Visible: func(l typelts.Label) bool {
			if imprecise.Contains(l) {
				return true
			}
			if _, done := l.(typelts.Done); done {
				return false
			}
			return !(typelts.IsTau(l) || allowed.Contains(l))
		}}
	case Reactive:
		imprecise := impreciseTaus(env)
		inputs := exactInputs(p.From)
		return &lts.POR{
			Visible: func(l typelts.Label) bool {
				return imprecise.Contains(l) || inputs.Contains(l)
			},
			Liveness: true,
		}
	default:
		return nil
	}
}

// porFilterAll is the ample-set filter of an exploration shared by the
// properties at idx, or nil unless every one has a filter: a label is
// visible when any member's filter sees it, and the strong cycle proviso
// applies when any member needs it.
func porFilterAll(env *types.Env, props []Property, idx []int) *lts.POR {
	filters := make([]*lts.POR, 0, len(idx))
	for _, i := range idx {
		f := porFilter(env, props[i])
		if f == nil {
			return nil
		}
		filters = append(filters, f)
	}
	union := &lts.POR{Visible: func(l typelts.Label) bool {
		for _, f := range filters {
			if f.Visible(l) {
				return true
			}
		}
		return false
	}}
	for _, f := range filters {
		union.Liveness = union.Liveness || f.Liveness
	}
	return union
}
