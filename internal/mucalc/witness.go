package mucalc

import (
	"fmt"

	"effpi/internal/typelts"
)

// Witness is a lasso-shaped violating run with full state identity: the
// LTS state visited at every position, plus the label fired at every
// step, as indices into the model that produced it. Unlike Trace (labels
// only), a Witness is machine-replayable: Validate re-runs it against the
// LTS edge relation, and EvalLasso re-checks that its label word
// violates the property — together the replay oracle of verify.Replay.
//
// Shape: StemStates[0] is the initial state and firing StemLabels[i]
// moves StemStates[i] → StemStates[i+1], so len(StemStates) ==
// len(StemLabels)+1; the last stem state is the lasso head. The cycle
// starts and ends there: CycleStates[0] == CycleStates[last] == lasso
// head, with CycleLabels[i] moving CycleStates[i] → CycleStates[i+1] and
// len(CycleStates) == len(CycleLabels)+1. A self-loop lasso has one cycle
// label; an empty stem (violation cycling through the initial state) has
// len(StemStates) == 1.
type Witness struct {
	StemStates  []int
	StemLabels  []int32
	CycleStates []int
	CycleLabels []int32
}

// Head returns the lasso head: the state the cycle loops on.
func (w *Witness) Head() int { return w.StemStates[len(w.StemStates)-1] }

// Trace projects the witness to its label word, resolving label indices
// against the given alphabet.
func (w *Witness) Trace(labels []typelts.Label) *Trace {
	tr := &Trace{}
	for _, l := range w.StemLabels {
		tr.Prefix = append(tr.Prefix, labels[l])
	}
	for _, l := range w.CycleLabels {
		tr.Cycle = append(tr.Cycle, labels[l])
	}
	return tr
}

// Validate checks that w is structurally a real run of m: the stem starts
// at the initial state, every step fires an actual edge of m (label index
// and destination both match), the cycle is non-empty, and it closes on
// the lasso head. Edges are matched by exact (label index, destination)
// identity, which is stronger than label-key equality.
func (w *Witness) Validate(m Model) error {
	if len(w.StemStates) != len(w.StemLabels)+1 {
		return fmt.Errorf("mucalc: malformed witness: %d stem states for %d stem labels", len(w.StemStates), len(w.StemLabels))
	}
	if len(w.CycleStates) != len(w.CycleLabels)+1 {
		return fmt.Errorf("mucalc: malformed witness: %d cycle states for %d cycle labels", len(w.CycleStates), len(w.CycleLabels))
	}
	if len(w.CycleLabels) == 0 {
		return fmt.Errorf("mucalc: malformed witness: empty cycle")
	}
	if w.StemStates[0] != m.Initial() {
		return fmt.Errorf("mucalc: witness stem starts at state %d, not the initial state %d", w.StemStates[0], m.Initial())
	}
	head := w.Head()
	if w.CycleStates[0] != head || w.CycleStates[len(w.CycleStates)-1] != head {
		return fmt.Errorf("mucalc: witness cycle does not loop on the lasso head %d (starts %d, ends %d)",
			head, w.CycleStates[0], w.CycleStates[len(w.CycleStates)-1])
	}
	check := func(kind string, states []int, labels []int32) error {
		for i, lab := range labels {
			src, dst := states[i], states[i+1]
			edges, err := m.Succ(src)
			if err != nil {
				return fmt.Errorf("mucalc: witness %s step %d: %w", kind, i, err)
			}
			found := false
			for _, e := range edges {
				if e.Label == lab && int(e.Dst) == dst {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("mucalc: witness %s step %d: state %d has no edge with label %d to state %d", kind, i, src, lab, dst)
			}
		}
		return nil
	}
	if err := check("stem", w.StemStates, w.StemLabels); err != nil {
		return err
	}
	return check("cycle", w.CycleStates, w.CycleLabels)
}
