package mucalc

import (
	"fmt"

	"effpi/internal/typelts"
)

// This file builds the Büchi automaton of ¬c for each clause c of a
// formula. The Fig. 7 schemas are conjunctions, and once the top-level ∧
// is split every clause is one of four specification patterns of Dwyer,
// Avrunin & Corbett (Patterns in property specifications for
// finite-state verification, ICSE 1999):
//
//	absence       □¬P           non-usage, every □(−Aτ)⊤
//	universality  □P            deadlock-freedom's main clause
//	recurrence    □♢P           reactive
//	response      □(P → X(¬B U D))  one per received z of forwarding and responsive
//
// P, B and D are letter formulas: disjunctions of Prop, NegProp, ⊤ and ⊥
// (absence is universality of ¬P). The automaton of each pattern's
// negation has a shape known in advance, so it is written down here
// instead of being derived by a general LTL translation.

// Buchi is a Büchi automaton whose transitions are guarded by action-set
// literals on the target state: a run q0 q1 q2... accepts the action word
// a0 a1 a2... iff a_i satisfies the guard of q_{i+1} (guards are checked
// when *entering* a state; q0 is a virtual initial state whose successors
// are Init) and some accepting state recurs infinitely often.
type Buchi struct {
	// Pos[q] / Neg[q]: the letter entering q must belong to every set in
	// Pos[q] and to no set in Neg[q].
	Pos [][]ActionSet
	Neg [][]ActionSet
	// Succ[q]: successor states of q.
	Succ [][]int
	// Init: successor states of the virtual initial node.
	Init []int
	// Accepting[q] reports Büchi acceptance.
	Accepting []bool
}

// Len returns the number of automaton states.
func (b *Buchi) Len() int { return len(b.Succ) }

// Admits reports whether label l satisfies the guard of state q.
func (b *Buchi) Admits(q int, l typelts.Label) bool {
	for _, a := range b.Pos[q] {
		if !a.Contains(l) {
			return false
		}
	}
	for _, a := range b.Neg[q] {
		if a.Contains(l) {
			return false
		}
	}
	return true
}

// clauses flattens phi's top-level conjunctions, taking the right operand
// first at every level. Every Fig. 7 schema with an imprecision conjunct
// puts □(−Aτ)⊤ on the left and its main obligation on the right, so the
// obligation — the clause that fails on broken systems, and whose
// violation a shallow search finds — is checked first. A □(−Aτ)⊤ that
// holds forces a search of the whole product, which the on-the-fly
// engine then never starts.
func clauses(phi Formula, out []Formula) []Formula {
	if a, ok := phi.(And); ok {
		return clauses(a.L, clauses(a.R, out))
	}
	return append(out, phi)
}

// guard is the letter condition of one automaton state: the letter is in
// every pos set and in no neg set.
type guard struct{ pos, neg []ActionSet }

// never reports that the guard admits no letter because it requires one
// in a known-empty set (ActionSet.Empty).
func (g guard) never() bool {
	for _, a := range g.pos {
		if a.Empty() {
			return true
		}
	}
	return false
}

// and is the conjunction of two guards; it never writes into g's slices.
func (g guard) and(h guard) guard {
	return guard{
		pos: append(g.pos[:len(g.pos):len(g.pos)], h.pos...),
		neg: append(g.neg[:len(g.neg):len(g.neg)], h.neg...),
	}
}

// negLetter returns the guard of ¬f for a letter formula f, a disjunction
// of literals; ok is false for any other formula. ¬⊤ requires a letter in
// the empty set, so a clause made vacuous by ⊤ is caught by guard.never
// like one made vacuous by an empty action set.
func negLetter(f Formula) (g guard, ok bool) {
	switch f := f.(type) {
	case False:
		return guard{}, true
	case True:
		return guard{pos: []ActionSet{LabelSet("∅")}}, true
	case Prop:
		return guard{neg: []ActionSet{f.Set}}, true
	case NegProp:
		return guard{pos: []ActionSet{f.Set}}, true
	case Or:
		l, okL := negLetter(f.L)
		r, okR := negLetter(f.R)
		return l.and(r), okL && okR
	}
	return guard{}, false
}

// negation returns the automaton of ¬c for one clause c, or nil when c
// holds vacuously: ⊤, or a pattern whose violation must start with a
// letter its guard cannot admit (the known-empty rule). Any clause other
// than ⊤, ⊥ and the four patterns is an error.
func negation(c Formula) (*Buchi, error) {
	switch c := c.(type) {
	case True:
		return nil, nil
	case False:
		return automaton([]int{0}, state{acc: true, succ: []int{0}}), nil
	case Release:
		if _, ok := c.L.(False); !ok {
			break
		}
		if bad, ok := negLetter(c.R); ok { // □P
			return unlessNever(bad, eventually(bad)), nil
		}
		switch body := c.R.(type) {
		case Until: // □♢P, with ♢P = ⊤ U P
			stable, ok := negLetter(body.R)
			if _, isTrue := body.L.(True); ok && isTrue {
				return unlessNever(stable, persistently(stable)), nil
			}
		case Or: // □(¬P ∨ X(¬B U D))
			next, ok := body.R.(Next)
			if !ok {
				break
			}
			until, ok := next.F.(Until)
			if !ok {
				break
			}
			trigger, okP := negLetter(body.L)
			pending, okD := negLetter(until.R)
			block, okB := negLetter(until.L)
			if okP && okD && okB {
				return unlessNever(trigger, unanswered(trigger, pending, pending.and(block))), nil
			}
		}
	}
	return nil, fmt.Errorf("mucalc: clause %s is none of ⊤, ⊥, absence, universality, recurrence or response", c)
}

// unlessNever drops the automaton when the guard of its first progress
// state admits no letter: then no run violates the clause.
func unlessNever(entry guard, b *Buchi) *Buchi {
	if entry.never() {
		return nil
	}
	return b
}

// state is one row of a pattern automaton. Every successor list names the
// state that makes progress towards acceptance before the state that
// waits: the nested DFS tries successors in that order, so it takes a
// violation at the first point on its path where one is possible, which
// keeps the witnesses short (DESIGN.md §4.6).
type state struct {
	g    guard
	acc  bool
	succ []int
}

func automaton(init []int, states ...state) *Buchi {
	n := len(states)
	b := &Buchi{
		Pos:       make([][]ActionSet, n),
		Neg:       make([][]ActionSet, n),
		Succ:      make([][]int, n),
		Init:      init,
		Accepting: make([]bool, n),
	}
	for q, s := range states {
		b.Pos[q], b.Neg[q], b.Succ[q], b.Accepting[q] = s.g.pos, s.g.neg, s.succ, s.acc
	}
	return b
}

// eventually is ¬□P = ♢¬P: wait, take one letter the guard bad admits,
// then accept any continuation.
func eventually(bad guard) *Buchi {
	return automaton([]int{1, 0},
		state{succ: []int{1, 0}},         // 0: waiting
		state{g: bad, succ: []int{2}},    // 1: the violating letter
		state{acc: true, succ: []int{2}}, // 2: any continuation
	)
}

// persistently is ¬□♢P = ♢□¬P: wait, then read only letters the guard
// stable admits, forever.
func persistently(stable guard) *Buchi {
	return automaton([]int{1, 0},
		state{succ: []int{1, 0}},                    // 0: waiting
		state{g: stable, acc: true, succ: []int{1}}, // 1: P never again
	)
}

// unanswered is ¬□(P → X(¬B U D)) = ♢(P ∧ X(B R ¬D)): wait, take a
// trigger letter, then either never discharge, or block before the
// discharge and accept any continuation.
func unanswered(trigger, pending, blocked guard) *Buchi {
	return automaton([]int{1, 0},
		state{succ: []int{1, 0}},                        // 0: waiting
		state{g: trigger, succ: []int{3, 2}},            // 1: the trigger letter
		state{g: pending, acc: true, succ: []int{3, 2}}, // 2: not discharged yet
		state{g: blocked, succ: []int{4}},               // 3: blocked before the discharge
		state{acc: true, succ: []int{4}},                // 4: any continuation
	)
}
