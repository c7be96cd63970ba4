package verify

import (
	"fmt"
	"sort"
	"strings"

	"effpi/internal/lts"
	"effpi/internal/mucalc"
	"effpi/internal/typelts"
	"effpi/internal/types"
)

// Witness is a decoded counterexample: the checker's state-level lasso
// (Raw) resolved against the explored type LTS, with every visited state
// decoded back to its parallel component multiset. It is the user-facing
// artifact of a FAIL verdict — Render prints it as a step-by-step trace —
// and the replayable evidence Replay validates.
type Witness struct {
	// Raw is the state/label-index lasso over the outcome's LTS.
	Raw *mucalc.Witness
	// Stem runs from the initial state to the lasso head; Cycle loops on
	// the head forever.
	Stem, Cycle []WitnessStep
	// States maps every state id visited by the lasso to its component
	// multiset: the FlattenPar leaves of the state's interned
	// representative type. The order of each slice is unspecified — it
	// follows the interner's IDs, which concurrent explorations over a
	// shared cache assign in schedule order; StateText prints the
	// components sorted.
	States map[int][]types.Type
}

// WitnessStep is one transition of a witness run.
type WitnessStep struct {
	From, To int
	Label    typelts.Label
}

// Head returns the lasso head state id.
func (w *Witness) Head() int { return w.Raw.Head() }

// DecodeWitness resolves a checker witness against the LTS it was
// extracted from: label indices become labels, state ids get their
// component multisets. Returns nil when raw is nil.
func DecodeWitness(m *lts.LTS, raw *mucalc.Witness) *Witness {
	if raw == nil {
		return nil
	}
	w := &Witness{Raw: raw, States: map[int][]types.Type{}}
	decode := func(states []int, labels []int32) []WitnessStep {
		steps := make([]WitnessStep, 0, len(labels))
		for i, lab := range labels {
			steps = append(steps, WitnessStep{From: states[i], To: states[i+1], Label: m.Labels[lab]})
		}
		for _, s := range states {
			if _, ok := w.States[s]; !ok {
				w.States[s] = m.StateComponents(s)
			}
		}
		return steps
	}
	w.Stem = decode(raw.StemStates, raw.StemLabels)
	w.Cycle = decode(raw.CycleStates, raw.CycleLabels)
	return w
}

// StateText pretty-prints a visited state as its component multiset,
// components in sorted order, so the text does not depend on the
// schedule that interned them.
func (w *Witness) StateText(s int) string {
	comps := w.States[s]
	if len(comps) == 0 {
		return "nil"
	}
	parts := make([]string, len(comps))
	for i, c := range comps {
		parts[i] = c.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, " ‖ ")
}

// Render prints the witness as a human-readable trace: the stem from the
// initial state, then the cycle that repeats forever. width truncates the
// printed component multisets (0 = no truncation).
func (w *Witness) Render(width int) string {
	clip := func(s string) string { return ClipRunes(s, width) }
	var b strings.Builder
	fmt.Fprintf(&b, "  s%-4d %s\n", w.Raw.StemStates[0], clip(w.StateText(w.Raw.StemStates[0])))
	for _, st := range w.Stem {
		fmt.Fprintf(&b, "    —[%s]→\n  s%-4d %s\n", st.Label, st.To, clip(w.StateText(st.To)))
	}
	fmt.Fprintf(&b, "  cycle (repeats forever):\n")
	for _, st := range w.Cycle {
		fmt.Fprintf(&b, "    —[%s]→\n  s%-4d %s\n", st.Label, st.To, clip(w.StateText(st.To)))
	}
	return b.String()
}

// ClipRunes truncates s to at most n runes (0 = no truncation). The cut
// falls on a rune boundary — rendered types and terms are full of
// multi-byte glyphs (‖, ⟨⟩, …), and a byte-offset cut would split one.
// Shared with the CLI's trace printing.
func ClipRunes(s string, n int) string {
	if n <= 0 {
		return s
	}
	count := 0
	for i := range s {
		count++
		if count > n {
			return s[:i] + "…"
		}
	}
	return s
}

// Replay re-validates a FAIL outcome by machine-checking its witness, the
// package's trust story for negative verdicts: (1) structurally, every
// stem and cycle step must be a real edge of the outcome's LTS and the
// cycle must close on the lasso head (mucalc.Witness.Validate); (2)
// semantically, ϕ evaluated directly on the lasso's label word
// stem·cycle^ω must be false (mucalc.EvalLasso) — i.e. the run really
// violates the property, established by a different algorithm than the
// clause automata and the nested product DFS that produced it.
//
// EventualOutput outcomes are rejected: the schema is checked
// existentially (EvUsageHolds), and its failures — "no run ever reaches
// the output" — have no finite single-run witness.
func Replay(o *Outcome) error {
	if o.Holds {
		return fmt.Errorf("verify: %s holds; there is no violation to replay", o.Property)
	}
	if o.Property.Kind == EventualOutput {
		return fmt.Errorf("verify: %s is existential (EvUsageHolds); its failures have no single-run witness", o.Property)
	}
	if o.Witness == nil || o.Witness.Raw == nil {
		return fmt.Errorf("verify: %s failed but no witness was recorded", o.Property)
	}
	// A symmetric FAIL's witness is a concrete run over the lifted
	// fragment, not over the orbit LTS the verdict was computed on.
	m := o.LTS
	if o.WitnessLTS != nil {
		m = o.WitnessLTS
	}
	if m == nil {
		return fmt.Errorf("verify: %s: outcome carries no LTS to replay against", o.Property)
	}
	if o.Formula == nil {
		return fmt.Errorf("verify: %s: outcome carries no formula to replay against", o.Property)
	}
	if err := o.Witness.Raw.Validate(mucalc.LTSModel(m)); err != nil {
		return fmt.Errorf("verify: %s: witness is not a run of the LTS: %w", o.Property, err)
	}
	tr := o.Witness.Raw.Trace(m.Labels)
	if mucalc.EvalLasso(o.Formula, tr.Prefix, tr.Cycle) {
		return fmt.Errorf("verify: %s: witness run does not violate the property (ϕ holds on its label word)", o.Property)
	}
	return nil
}
