package mucalc

import (
	"fmt"

	"effpi/internal/typelts"
)

// EvalLasso reports whether the infinite word stem·cycle^ω satisfies f.
// The word has len(stem)+len(cycle) distinct positions: the successor of
// the last one is the first cycle position. Each subformula is evaluated
// to its truth value at every position, bottom up; Until is the least
// and Release the greatest fixpoint of its one-step unfolding over the
// positions. It is the replay check of a counterexample (verify.Replay):
// a different algorithm from the automata and the nested DFS that found
// the lasso. The cycle must be non-empty; Witness.Validate ensures it.
func EvalLasso(f Formula, stem, cycle []typelts.Label) bool {
	if len(cycle) == 0 {
		panic("mucalc: EvalLasso needs a non-empty cycle")
	}
	word := append(append([]typelts.Label{}, stem...), cycle...)
	next := func(i int) int {
		if i+1 < len(word) {
			return i + 1
		}
		return len(stem)
	}
	// fix sweeps v ← step(v) until nothing changes; step is monotone, so
	// from all-false (all-true) it reaches the least (greatest) fixpoint.
	fix := func(v []bool, step func(i int) bool) {
		for changed := true; changed; {
			changed = false
			for i := len(v) - 1; i >= 0; i-- {
				if x := step(i); x != v[i] {
					v[i], changed = x, true
				}
			}
		}
	}
	var sat func(f Formula) []bool
	sat = func(f Formula) []bool {
		v := make([]bool, len(word))
		switch f := f.(type) {
		case True:
			for i := range v {
				v[i] = true
			}
		case False:
		case Prop:
			fix(v, func(i int) bool { return f.Set.Contains(word[i]) })
		case NegProp:
			fix(v, func(i int) bool { return !f.Set.Contains(word[i]) })
		case Not:
			x := sat(f.F)
			fix(v, func(i int) bool { return !x[i] })
		case And:
			l, r := sat(f.L), sat(f.R)
			fix(v, func(i int) bool { return l[i] && r[i] })
		case Or:
			l, r := sat(f.L), sat(f.R)
			fix(v, func(i int) bool { return l[i] || r[i] })
		case Next:
			x := sat(f.F)
			fix(v, func(i int) bool { return x[next(i)] })
		case Until: // v = R ∨ (L ∧ X v), least
			l, r := sat(f.L), sat(f.R)
			fix(v, func(i int) bool { return r[i] || l[i] && v[next(i)] })
		case Release: // v = R ∧ (L ∨ X v), greatest
			l, r := sat(f.L), sat(f.R)
			for i := range v {
				v[i] = true
			}
			fix(v, func(i int) bool { return r[i] && (l[i] || v[next(i)]) })
		default:
			panic(fmt.Sprintf("mucalc: unknown formula %T", f))
		}
		return v
	}
	return sat(f)[0]
}
