package verify

// Exploration-time partial-order reduction (Request.PartialOrder): the
// verifier hands lts.Explore an ample-set filter (lts.POR) whose
// visibility predicate is derived from the property's own action sets —
// the same Fig. 7 machinery the symbolic compiler uses — so the
// exploration registers, per state, only a persistent subset of the
// enabled synchronisations. Ample sets only ever *drop* edges: every
// state and edge of the reduced LTS is a state and edge of the full
// one, so a FAIL witness found on the reduced space is already a
// concrete run and the replay oracle re-validates it directly, with no
// lifting stage (unlike symmetry reduction, which checks on orbit
// representatives).
//
// Eligibility mirrors the symbolic compiler: NonUsage, DeadlockFree and
// Reactive have alphabet-independent action-set semantics from which a
// sound visible-label set can be computed before exploration. The other
// schemas (Forwarding, Responsive — shaped by the payload variables
// found in the explored alphabet — and EventualOutput, which is not
// LTL) silently run the full exploration. Reactive carries an
// eventuality (Box(Diamond ...)), so its filter uses the strong cycle
// proviso (lts.POR.Liveness); the two safety schemas run with the weak
// queue proviso.
//
// Precedence: symmetry reduction wins when both are requested and a
// group is detected — the orbit exploration's canonicalisation assumes
// it sees every concrete successor, so the two exploration-time
// reductions do not stack (lts.Options documents the same rule).
// EarlyExit composes freely with POR: the on-the-fly search runs over
// the ample-reduced incremental exploration, which preserves the
// property itself.

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
	// relation of the type semantics with the property's visible labels
	// excluded. Verdicts are identical to PartialOrderOff; every FAIL's
	// witness is a concrete run of the reduced (⊆ full) space,
	// re-validated by Replay. The mode only engages for the eligible
	// schemas (NonUsage, DeadlockFree, Reactive) and when symmetry
	// reduction has not claimed the exploration — otherwise it silently
	// runs the full exploration.
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

// porEligible reports whether the schema's action-set semantics support
// a pre-exploration visible-label set — the same three schemas the
// symbolic compiler handles, so it also decides which properties the
// early-exit engine serves.
func porEligible(k Kind) bool {
	switch k {
	case NonUsage, DeadlockFree, Reactive:
		return true
	default:
		return false
	}
}

// porFilter builds the ample-set filter for an eligible property, or
// nil for the rest. The visible set contains exactly the labels whose
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
		uses := outputUsesSet(env, p.Channels)
		return &lts.POR{Visible: uses.Contains}
	case DeadlockFree:
		imprecise := impreciseTauSet(env)
		allowed := exactIOSet(p.Channels)
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
		imprecise := impreciseTauSet(env)
		inputs := exactInputSet(p.From)
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
