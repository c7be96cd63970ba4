package effpi

// WitnessJSON is the machine-readable counterexample lasso of effpid's
// responses, the one JSON witness emitter: the violating run follows
// Stem from the initial state, then repeats Cycle forever. Every step
// names its source and destination state ids (into the request's
// explored LTS) and the fired transition label.
type WitnessJSON struct {
	Stem  []WitnessStepJSON `json:"stem"`
	Cycle []WitnessStepJSON `json:"cycle"`
	// Replayed records that Replay re-validated the lasso against the
	// LTS and the property's Büchi automaton before serialisation.
	Replayed bool `json:"replayed"`
}

// WitnessStepJSON is one transition of a serialised witness run. Pos
// carries the file:line:col source positions of the extracted actions
// behind the label when the outcome came from a Go-source extraction
// (WitnessToJSONMapped); it is absent otherwise.
type WitnessStepJSON struct {
	From  int      `json:"from"`
	Label string   `json:"label"`
	To    int      `json:"to"`
	Pos   []string `json:"pos,omitempty"`
}

// WitnessToJSON converts a failing outcome's witness to its wire form,
// re-validating it first (Replay): a FAIL in a JSON artifact is a
// checkable claim, and a witness that does not replay means the checker
// lied — the error, not a JSON object, is what the caller must surface.
// Callers should only pass FAILs of LTL-checked properties; a missing
// witness (including ev-usage FAILs, which have none) is an error.
func WitnessToJSON(o *Outcome) (*WitnessJSON, error) {
	if err := Replay(o); err != nil {
		return nil, err
	}
	conv := func(steps []WitnessStep) []WitnessStepJSON {
		out := make([]WitnessStepJSON, len(steps))
		for i, st := range steps {
			out[i] = WitnessStepJSON{From: st.From, Label: st.Label.String(), To: st.To}
		}
		return out
	}
	return &WitnessJSON{Stem: conv(o.Witness.Stem), Cycle: conv(o.Witness.Cycle), Replayed: true}, nil
}
