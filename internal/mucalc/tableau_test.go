package mucalc

// The reference checker. Before each clause had a fixed automaton, every
// formula was translated to a Büchi automaton by the general GPVW
// tableau below, after constant folding (Simplify), and a witness was
// replayed by Buchi.AcceptsLasso. That code now lives here, unchanged in
// what it computes, as the oracle the pattern automata and EvalLasso are
// compared against.

import (
	"fmt"
	"sort"
	"strings"

	"effpi/internal/lts"
	"effpi/internal/typelts"
)

// Oracle decides m |= phi through the tableau: the nested DFS over the
// product with the automaton of ¬Simplify(phi). It is exported for the
// differential test in package mucalc_test.
func Oracle(m *lts.LTS, phi Formula) Result {
	ba := Translate(Not{F: Simplify(phi)})
	p := newProduct(LTSModel(m), ba)
	w, visited := p.findAcceptingLasso()
	res := Result{Holds: w == nil, Witness: w, ProductStates: visited, AutomatonStates: ba.Len()}
	if w != nil {
		res.Counterexample = w.Trace(m.Labels)
	}
	return res
}

// --- Negation normal form --------------------------------------------------

// NNF rewrites f into negation normal form: negations appear only on
// atoms (as NegProp), which is what the tableau construction consumes.
func NNF(f Formula) Formula {
	switch f := f.(type) {
	case True, False, Prop, NegProp:
		return f
	case Not:
		return negate(NNF(f.F))
	case And:
		return And{L: NNF(f.L), R: NNF(f.R)}
	case Or:
		return Or{L: NNF(f.L), R: NNF(f.R)}
	case Next:
		return Next{F: NNF(f.F)}
	case Until:
		return Until{L: NNF(f.L), R: NNF(f.R)}
	case Release:
		return Release{L: NNF(f.L), R: NNF(f.R)}
	default:
		panic(fmt.Sprintf("mucalc: unknown formula %T", f))
	}
}

// --- Formula sets -----------------------------------------------------------

type formulaSet map[string]Formula

func (s formulaSet) add(f Formula)      { s[f.Key()] = f }
func (s formulaSet) has(f Formula) bool { _, ok := s[f.Key()]; return ok }
func (s formulaSet) clone() formulaSet {
	c := make(formulaSet, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s formulaSet) key() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

// Simplify rewrites f to an equivalent, usually smaller formula:
// boolean-constant folding through every connective, plus the standard
// temporal identities X⊤ = ⊤, ⊥Uϕ = ϕ, ϕU⊥ = ⊥, ⊤Rϕ... (see cases).
func Simplify(f Formula) Formula {
	switch f := f.(type) {
	case True, False:
		return f
	case Prop:
		if f.Set.Empty() {
			return False{}
		}
		return f
	case NegProp:
		if f.Set.Empty() {
			return True{}
		}
		return f
	case Not:
		switch inner := Simplify(f.F).(type) {
		case True:
			return False{}
		case False:
			return True{}
		case Not:
			return inner.F
		default:
			return Not{F: inner}
		}
	case And:
		l, r := Simplify(f.L), Simplify(f.R)
		if isFalse(l) || isFalse(r) {
			return False{}
		}
		if isTrue(l) {
			return r
		}
		if isTrue(r) {
			return l
		}
		if l.Key() == r.Key() {
			return l
		}
		return And{L: l, R: r}
	case Or:
		l, r := Simplify(f.L), Simplify(f.R)
		if isTrue(l) || isTrue(r) {
			return True{}
		}
		if isFalse(l) {
			return r
		}
		if isFalse(r) {
			return l
		}
		if l.Key() == r.Key() {
			return l
		}
		return Or{L: l, R: r}
	case Next:
		inner := Simplify(f.F)
		// On infinite (run-completed) words, X distributes over the
		// constants.
		if isTrue(inner) {
			return True{}
		}
		if isFalse(inner) {
			return False{}
		}
		return Next{F: inner}
	case Until:
		l, r := Simplify(f.L), Simplify(f.R)
		if isFalse(r) {
			return False{} // the goal never becomes true
		}
		if isTrue(r) {
			return True{} // satisfied at position 0
		}
		if isFalse(l) {
			return r // the goal must hold immediately
		}
		// ⊤ U ϕ stays (it is ♢ϕ).
		return Until{L: l, R: r}
	case Release:
		l, r := Simplify(f.L), Simplify(f.R)
		if isTrue(r) {
			return True{}
		}
		if isTrue(l) {
			return r // released immediately
		}
		if isFalse(r) {
			return False{} // r must hold at position 0
		}
		// ⊥ R ϕ stays (it is □ϕ).
		return Release{L: l, R: r}
	default:
		return f
	}
}

func isTrue(f Formula) bool {
	_, ok := f.(True)
	return ok
}

func isFalse(f Formula) bool {
	_, ok := f.(False)
	return ok
}

// Translate turns NNF formulas into Büchi automata with the GPVW
// tableau (Gerth, Peled, Vardi, Wolper, PSTV 1995), then degeneralizes
// the resulting generalized acceptance condition with the counter
// construction (Baier & Katoen, Principles of Model Checking, Thm. 4.56).
//
// Automaton states carry literal guards: a run q0 q1 q2... accepts the
// action word a0 a1 a2... iff a_i satisfies the literals of q_{i+1}'s Old
// set (guards are checked when *entering* a state) and the acceptance
// condition holds.

// Translate builds a Büchi automaton accepting exactly the runs
// satisfying f. The input is converted to NNF internally. It must be
// simplified first: ⊤ never enters a node's Old set, so an Until whose
// right operand is ⊤ never meets its acceptance set. Simplify folds every
// such Until away.
func Translate(f Formula) *Buchi {
	f = NNF(f)
	g := newGraphBuilder()
	initNew := make(formulaSet)
	initNew.add(f)
	g.expand(&gpvwNode{
		incoming: map[int]bool{initID: true},
		new:      initNew,
		old:      make(formulaSet),
		next:     make(formulaSet),
	})
	gba := g.finish(f)
	return degeneralize(gba)
}

const initID = -1

type gpvwNode struct {
	id       int
	incoming map[int]bool
	new      formulaSet
	old      formulaSet
	next     formulaSet
}

type graphBuilder struct {
	nodes  []*gpvwNode
	byKey  map[string]*gpvwNode // old.key + "⊲" + next.key → node
	nextID int
}

func newGraphBuilder() *graphBuilder {
	return &graphBuilder{byKey: map[string]*gpvwNode{}}
}

func nodeKey(old, next formulaSet) string { return old.key() + "⊲" + next.key() }

func (g *graphBuilder) expand(q *gpvwNode) {
	if len(q.new) == 0 {
		key := nodeKey(q.old, q.next)
		if r, ok := g.byKey[key]; ok {
			for in := range q.incoming {
				r.incoming[in] = true
			}
			return
		}
		q.id = g.nextID
		g.nextID++
		g.nodes = append(g.nodes, q)
		g.byKey[key] = q
		succ := &gpvwNode{
			incoming: map[int]bool{q.id: true},
			new:      q.next.clone(),
			old:      make(formulaSet),
			next:     make(formulaSet),
		}
		g.expand(succ)
		return
	}

	// Pop a formula from New.
	var f Formula
	for k, v := range q.new {
		f = v
		delete(q.new, k)
		_ = k
		break
	}

	if q.old.has(f) {
		g.expand(q)
		return
	}

	switch f := f.(type) {
	case False:
		return // contradiction: drop the node
	case True:
		g.expand(q)
	case Prop:
		if q.old.has(NegProp{Set: f.Set}) {
			return
		}
		q.old.add(f)
		g.expand(q)
	case NegProp:
		if q.old.has(Prop{Set: f.Set}) {
			return
		}
		q.old.add(f)
		g.expand(q)
	case And:
		q.old.add(f)
		if !q.old.has(f.L) {
			q.new.add(f.L)
		}
		if !q.old.has(f.R) {
			q.new.add(f.R)
		}
		g.expand(q)
	case Next:
		q.old.add(f)
		q.next.add(f.F)
		g.expand(q)
	case Or:
		q1 := splitNode(q, f, f.L, nil)
		q2 := splitNode(q, f, f.R, nil)
		g.expand(q1)
		g.expand(q2)
	case Until:
		// f ≡ R ∨ (L ∧ X f)
		q1 := splitNode(q, f, f.L, f)
		q2 := splitNode(q, f, f.R, nil)
		g.expand(q1)
		g.expand(q2)
	case Release:
		// f ≡ (R ∧ L) ∨ (R ∧ X f)
		q1 := splitNode(q, f, f.R, f)
		q2 := splitNode(q, f, f.R, nil)
		q2.new.add(f.L)
		g.expand(q1)
		g.expand(q2)
	default:
		panic("mucalc: non-NNF formula reached tableau")
	}
}

// splitNode clones q, records f as processed, pushes sub onto New, and
// (for Until/Release) pushes the recurrence xf onto Next.
func splitNode(q *gpvwNode, f Formula, sub Formula, xf Formula) *gpvwNode {
	n := &gpvwNode{
		incoming: cloneIntSet(q.incoming),
		new:      q.new.clone(),
		old:      q.old.clone(),
		next:     q.next.clone(),
	}
	n.old.add(f)
	if !n.old.has(sub) {
		n.new.add(sub)
	}
	if xf != nil {
		n.next.add(xf)
	}
	return n
}

func cloneIntSet(s map[int]bool) map[int]bool {
	c := make(map[int]bool, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// gba is a generalized Büchi automaton produced by the tableau.
type gba struct {
	pos, neg [][]ActionSet
	succ     [][]int
	init     []int
	// accept[i] is the i-th acceptance set (one per Until subformula).
	accept [][]bool
}

func (g *graphBuilder) finish(f Formula) *gba {
	n := len(g.nodes)
	a := &gba{
		pos:  make([][]ActionSet, n),
		neg:  make([][]ActionSet, n),
		succ: make([][]int, n),
	}
	for _, q := range g.nodes {
		for _, ff := range q.old {
			switch ff := ff.(type) {
			case Prop:
				a.pos[q.id] = append(a.pos[q.id], ff.Set)
			case NegProp:
				a.neg[q.id] = append(a.neg[q.id], ff.Set)
			}
		}
		for in := range q.incoming {
			if in == initID {
				a.init = append(a.init, q.id)
			} else {
				a.succ[in] = append(a.succ[in], q.id)
			}
		}
	}
	// One acceptance set per Until subformula u = L U R:
	// F_u = {q | u ∉ Old(q) or R ∈ Old(q)}.
	for _, u := range collectUntils(f) {
		set := make([]bool, n)
		for _, q := range g.nodes {
			set[q.id] = !q.old.has(u) || q.old.has(u.R)
		}
		a.accept = append(a.accept, set)
	}
	return a
}

func collectUntils(f Formula) []Until {
	seen := map[string]bool{}
	var out []Until
	var walk func(Formula)
	walk = func(f Formula) {
		switch f := f.(type) {
		case And:
			walk(f.L)
			walk(f.R)
		case Or:
			walk(f.L)
			walk(f.R)
		case Next:
			walk(f.F)
		case Until:
			if !seen[f.Key()] {
				seen[f.Key()] = true
				out = append(out, f)
			}
			walk(f.L)
			walk(f.R)
		case Release:
			walk(f.L)
			walk(f.R)
		}
	}
	walk(f)
	return out
}

// degeneralize applies the counter construction: states (q, i) where i
// indexes the acceptance set currently awaited; leaving a state of F_i at
// level i advances the counter; acceptance is F_0 × {0}.
func degeneralize(g *gba) *Buchi {
	n := len(g.succ)
	k := len(g.accept)
	if k == 0 {
		// No Until subformulas: every infinite run is accepting.
		b := &Buchi{
			Pos:       g.pos,
			Neg:       g.neg,
			Succ:      g.succ,
			Init:      g.init,
			Accepting: make([]bool, n),
		}
		for i := range b.Accepting {
			b.Accepting[i] = true
		}
		return b
	}
	id := func(q, i int) int { return q*k + i }
	b := &Buchi{
		Pos:       make([][]ActionSet, n*k),
		Neg:       make([][]ActionSet, n*k),
		Succ:      make([][]int, n*k),
		Accepting: make([]bool, n*k),
	}
	for q := 0; q < n; q++ {
		for i := 0; i < k; i++ {
			s := id(q, i)
			b.Pos[s] = g.pos[q]
			b.Neg[s] = g.neg[q]
			j := i
			if g.accept[i][q] {
				j = (i + 1) % k
			}
			for _, qq := range g.succ[q] {
				b.Succ[s] = append(b.Succ[s], id(qq, j))
			}
			b.Accepting[s] = i == 0 && g.accept[0][q]
		}
	}
	for _, q := range g.init {
		b.Init = append(b.Init, id(q, 0))
	}
	return b
}

// AcceptsLasso reports whether the automaton accepts the infinite word
// prefix·cycle^ω. Together with Witness.Validate this replays a witness:
// the automaton built for ¬ϕ accepts the lasso's label word iff the run
// really violates ϕ.
//
// The check is the standard finite one: collect the automaton states
// reachable after reading the prefix (guards are evaluated on *entering*
// a state, matching the product construction), then look for a reachable
// accepting cycle in the finite graph of (automaton state, cycle
// position) pairs — every accepting run of an ultimately periodic word is
// ultimately periodic over that graph.
func (b *Buchi) AcceptsLasso(prefix, cycle []typelts.Label) bool {
	if len(cycle) == 0 {
		return false
	}
	// States reachable after the prefix, starting from the virtual initial
	// node (whose successors are Init).
	cur := map[int]bool{}
	for _, q := range b.Init {
		cur[q] = true
	}
	first := true
	step := func(from map[int]bool, letter typelts.Label) map[int]bool {
		next := map[int]bool{}
		for q := range from {
			for _, qq := range b.Succ[q] {
				if b.Admits(qq, letter) {
					next[qq] = true
				}
			}
		}
		return next
	}
	for _, letter := range prefix {
		if first {
			// The Init set holds the *successors* of the virtual node; the
			// first letter is consumed entering them.
			filtered := map[int]bool{}
			for q := range cur {
				if b.Admits(q, letter) {
					filtered[q] = true
				}
			}
			cur = filtered
			first = false
			continue
		}
		cur = step(cur, letter)
	}
	if len(cur) == 0 {
		return false
	}

	// Lasso graph: node (q, i) means the automaton entered q and the next
	// letter is cycle[i]. Edges follow one letter of the cycle.
	n := len(cycle)
	node := func(q, i int) int { return q*n + i }
	var start []int
	if first {
		// Empty prefix: the virtual initial node is still pending; its
		// Init successors are entered consuming cycle[0].
		for q := range cur {
			if b.Admits(q, cycle[0]) {
				start = append(start, node(q, 1%n))
			}
		}
	} else {
		for q := range cur {
			start = append(start, node(q, 0))
		}
	}

	// Reachability from the start frontier.
	total := b.Len() * n
	reach := make([]bool, total)
	queue := append([]int{}, start...)
	for _, v := range start {
		reach[v] = true
	}
	succ := func(v int) []int {
		q, i := v/n, v%n
		var out []int
		for _, qq := range b.Succ[q] {
			if b.Admits(qq, cycle[i]) {
				out = append(out, node(qq, (i+1)%n))
			}
		}
		return out
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range succ(v) {
			if !reach[u] {
				reach[u] = true
				queue = append(queue, u)
			}
		}
	}

	// An accepting run exists iff some reachable node with an accepting
	// automaton state lies on a cycle of the lasso graph.
	for v := 0; v < total; v++ {
		if !reach[v] || !b.Accepting[v/n] {
			continue
		}
		// BFS from v back to v.
		seen := make([]bool, total)
		q2 := succ(v)
		hit := false
		for _, u := range q2 {
			if u == v {
				hit = true
			}
			seen[u] = true
		}
		for len(q2) > 0 && !hit {
			u := q2[0]
			q2 = q2[1:]
			for _, x := range succ(u) {
				if x == v {
					hit = true
					break
				}
				if !seen[x] {
					seen[x] = true
					q2 = append(q2, x)
				}
			}
		}
		if hit {
			return true
		}
	}
	return false
}
