package lts

// This file implements exploration-time partial-order reduction: per
// expanded state, the builder registers an ample (persistent) subset of
// the enabled transitions instead of all of them, so commuting
// interleavings of independent synchronisations collapse to one
// representative order and the reduced reachable set shrinks.
//
// The independence relation comes straight from the component-multiset
// semantics: a transition's participants are the acting positions of
// a proposal (one position for an interleaving step, two for a
// synchronisation), successors are multiset surgery on exactly those
// positions, and solo/pairwise enabledness is a pure function of the
// participating component IDs. Two transitions with disjoint participant
// sets therefore commute: firing one neither disables the other nor
// changes its successor. The ample computation closes a set C of
// protected positions so that
//
//   (C0) the ample set is non-empty (it contains the seed transition);
//   (C1) every enabled transition touching C is ample, and no sequence
//        of non-ample transitions can enable a new transition touching C
//        — non-ample transitions keep every C component frozen, so the
//        ample transitions stay enabled and commute to the front
//        (persistence);
//   (C2) every ample label is invisible to the property (POR.Visible);
//   (C3) an ample-only edge never closes a cycle: a state whose selected
//        successor was already discovered is fully expanded instead, so
//        every cycle of the reduced graph contains a fully expanded
//        state and no enabled transition is deferred forever.
//
// C1's "no future enabling" half is checked with a context-free
// descendant closure: a position outside C joins C when any component
// its current component can evolve into (through any number of its own
// steps, in any context) could synchronise with the current component
// of a C member. That over-approximation is cheap — it is a pure
// function of component IDs and memoised across the exploration — and
// it is what decides how far a reduction can go: compositions whose
// conflict graph falls apart into independent clusters (ping-pong
// pairs) collapse to nearly linear size, while a Dining-shaped ring,
// where every unit's future touches both neighbours, keeps ample sets
// close to full and the reduction is mostly in edges, not states (see
// DESIGN.md §por for the measurements).
//
// Everything here runs on the registration side of both engines
// (Explore and incremental expansion) and uses only content-deterministic
// queries — boolean set membership, position order, canonical proposal
// order — never interner-ID iteration order, so the reduced LTS does not
// depend on how concurrent explorations over a shared cache interleave.

import (
	"effpi/internal/typelts"
	"effpi/internal/types"
)

// POR configures exploration-time partial-order reduction
// (Options.PartialOrder).
type POR struct {
	// Visible reports whether the verified property observes the label.
	// A transition with a visible label never enters a proper ample set
	// (condition C2), so the visible projection of every full run — all
	// the property can distinguish — survives the reduction. Nil means
	// no label is visible.
	Visible func(l typelts.Label) bool

	// Liveness selects the strong cycle proviso: an ample set is usable
	// only when none of its successors' ample decisions were already made,
	// so no cycle of the reduced graph is built from reduced states only
	// and no enabled transition is deferred around a lasso forever —
	// required for properties with eventualities (Reactive). Safety
	// properties (NonUsage, DeadlockFree) only need the weak queue
	// proviso — at least one selected successor still undecided: a
	// deferred transition stays enabled by persistence and the deferral
	// chain follows strictly later-decided states, so some state on it is
	// eventually expanded in full and fires the transition; deadlock
	// states are preserved by persistence alone.
	Liveness bool
}

// maxAmpleSeeds bounds how many seed transitions the ample computation
// tries per state. Seeds are tried in canonical proposal order, so the
// bound only matters for states with very wide branching; giving up
// merely falls back to full expansion, which is always sound.
const maxAmpleSeeds = 64

// porState holds the memoised relations and per-state scratch of the
// ample-set computation for one exploration.
type porState struct {
	spec *POR
	sem  *typelts.Semantics
	// ranks is the exploration's rank table, whose partner lists answer
	// which components can synchronise (syncable).
	ranks *rankTable

	// descs memoises the context-free descendant closure per component
	// ID (see desc).
	descs map[types.ID][]types.ID

	// Per-state scratch, reused across expansions.
	inC      []bool    // position ∈ C (protected)
	inAmple  []bool    // proposal ∈ ample set
	queue    []int     // positions awaiting rule-A processing
	posProps [][]int32 // position → indices of touching proposals
}

func newPORState(spec *POR, sem *typelts.Semantics, ranks *rankTable) *porState {
	return &porState{spec: spec, sem: sem, ranks: ranks, descs: make(map[types.ID][]types.ID, 64)}
}

func (p *porState) visible(l typelts.Label) bool {
	return p.spec.Visible != nil && p.spec.Visible(l)
}

// syncable reports whether component x and the component of rank y (a
// component of the state being expanded) can synchronise in either
// direction. It reads the same partner relation the sync sweep walks
// (rankTable.syncs), so exploration and ample-set independence share
// one definition of "may synchronise", and the answer is exact. A
// descendant x that no registered state holds yet has no rank; its
// entry is compared with y's directly, through the same port test and
// the same SyncSteps memo.
func (p *porState) syncable(x types.ID, y int32) bool {
	t := p.ranks
	if rx, ok := t.idx[x]; ok {
		t.fetch(rx)
		return len(t.syncs(rx, y)) > 0 || len(t.syncs(y, rx)) > 0
	}
	cx, cy := p.sem.Component(x), t.rows[y].comp
	return len(syncSteps(p.sem, cx, cy)) > 0 || len(syncSteps(p.sem, cy, cx)) > 0
}

// syncSteps returns the synchronisations of an output of component x
// with an input of component y: none when their port summaries cannot
// meet (typelts.MaySync, the test partner lists are built with), and
// otherwise the SyncSteps memo.
func syncSteps(sem *typelts.Semantics, x, y *typelts.Component) []typelts.CompStep {
	if !typelts.MaySync(&x.Ports, &y.Ports) {
		return nil
	}
	return sem.SyncSteps(x.ID, y.ID)
}

// fresh is the cycle proviso (C3) the ample selection filters
// candidates with: an ample set is only usable when none of its edges
// closes back onto a state whose ample decision was already made (or
// onto this very state) — otherwise a cycle of ample-only edges could
// defer the dropped transitions forever. Feeding the check into seed
// selection lets a different seed succeed where the first choice would
// close a cycle. Soundness: every cycle of the reduced graph contains a
// fully expanded state — consider the last state of a cycle to make its
// decision; its cycle successor decided earlier, so the check fired and
// the state expanded fully.
func (b *builder) fresh(p proposal) bool {
	num, ok := b.peekSeen(p)
	return !ok || (num != b.porCur && !b.porExpanded(num))
}

// peekSeen returns the state number of a proposal's successor if it is
// already discovered. It is the probe register makes (findEdit), so it
// builds no components, registers nothing and assigns no ranks.
func (b *builder) peekSeen(p proposal) (int32, bool) {
	num, _, _ := b.findEdit(p)
	return num, num >= 0
}

// ample returns the indices (in canonical proposal order) of a valid
// ample subset of props at the state whose components have the first
// ranks rs, or nil when the state must be fully expanded. fresh is the
// cycle-proviso filter: a candidate set with a non-fresh successor is
// discarded (and another seed tried).
func (p *porState) ample(rs []int32, props []proposal, fresh func(proposal) bool) []int32 {
	if len(props) < 2 {
		return nil
	}
	n := len(rs)
	if cap(p.posProps) < n {
		p.posProps = make([][]int32, n)
		p.inC = make([]bool, n)
	}
	p.posProps = p.posProps[:n]
	p.inC = p.inC[:n]
	for i := range p.posProps {
		p.posProps[i] = p.posProps[i][:0]
	}
	if cap(p.inAmple) < len(props) {
		p.inAmple = make([]bool, len(props))
	}
	p.inAmple = p.inAmple[:len(props)]
	for k := range props {
		p.posProps[props[k].i] = append(p.posProps[props[k].i], int32(k))
		if props[k].j >= 0 {
			p.posProps[props[k].j] = append(p.posProps[props[k].j], int32(k))
		}
	}

	// Seeds are tried in canonical proposal order (position-major): every
	// state prefers to advance its lowest reducible position, and the
	// first valid ample set wins. The consistency matters more than the
	// set size — when neighbouring states agree on which position moves
	// first, the commuting interleavings collapse into one canonical
	// corridor instead of re-reaching the dropped diamond states through
	// sibling orders.
	tries := len(props)
	if tries > maxAmpleSeeds {
		tries = maxAmpleSeeds
	}
	for seed := 0; seed < tries; seed++ {
		sel := p.closure(rs, props, seed)
		if sel == nil {
			continue
		}
		ok := false // weak (safety) proviso: ∃ fresh selected successor
		for _, k := range sel {
			if fresh(props[k]) {
				ok = true
				if !p.spec.Liveness {
					break
				}
			} else if p.spec.Liveness {
				// Strong proviso: ∀ selected successors fresh.
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		return sel
	}
	return nil
}

// closure grows the seed transition into an ample set: rule A pulls in
// every enabled proposal touching a protected position (failing on a
// visible label), rule B protects every position whose context-justified
// future can synchronise with a protected component. Returns the ample
// proposal indices in ascending order, or nil when the closure covers
// everything (no reduction) or meets a visible label.
func (p *porState) closure(rs []int32, props []proposal, seed int) []int32 {
	for i := range p.inC {
		p.inC[i] = false
	}
	for i := range p.inAmple {
		p.inAmple[i] = false
	}
	p.queue = p.queue[:0]
	ampleCount := 0

	addPos := func(pos int32) {
		if !p.inC[pos] {
			p.inC[pos] = true
			p.queue = append(p.queue, int(pos))
		}
	}
	addProp := func(k int) bool {
		if p.inAmple[k] {
			return true
		}
		if p.visible(props[k].m.st.Label) {
			return false
		}
		p.inAmple[k] = true
		ampleCount++
		addPos(props[k].i)
		if props[k].j >= 0 {
			addPos(props[k].j)
		}
		return true
	}

	if !addProp(seed) {
		return nil
	}
	for {
		for len(p.queue) > 0 {
			pos := p.queue[len(p.queue)-1]
			p.queue = p.queue[:len(p.queue)-1]
			for _, k := range p.posProps[pos] {
				if !addProp(int(k)) {
					return nil
				}
			}
			if ampleCount == len(props) {
				return nil
			}
		}
		if !p.ruleB(rs) {
			break
		}
	}

	sel := make([]int32, 0, ampleCount)
	for k := range props {
		if p.inAmple[k] {
			sel = append(sel, int32(k))
		}
	}
	if len(sel) == len(props) {
		return nil
	}
	return sel
}

// ruleB protects every position whose current component could ever —
// after any number of its own steps — synchronise with the current
// component of a protected position, and reports whether C grew. A
// position that passes this test can only interact with C after C
// itself moves, so freezing C also freezes every interaction the
// position could have with it: no sequence of non-ample transitions
// enables a new transition touching C (the future-enabling half of
// persistence).
//
// The future of a component is its context-free descendant closure —
// every component reachable through its own steps regardless of
// whether a synchronisation partner exists. That over-approximates
// what the position can do in any context, which errs toward
// protecting more positions and is therefore sound; it is also a pure
// function of the component ID, so the closure is memoised for the
// whole exploration and the per-state cost is a handful of indexed
// set probes.
func (p *porState) ruleB(rs []int32) bool {
	n := len(rs)
	grew := false
	for q := 0; q < n; q++ {
		if p.inC[q] {
			continue
		}
		hit := false
		for _, id := range p.desc(p.ranks.l.comp[rs[q]]) {
			for pos := 0; pos < n && !hit; pos++ {
				if p.inC[pos] && p.syncable(id, rs[pos]) {
					hit = true
				}
			}
			if hit {
				break
			}
		}
		if hit {
			p.inC[q] = true
			p.queue = append(p.queue, q)
			grew = true
		}
	}
	return grew
}

// desc returns the context-free descendant closure of a component:
// the component itself plus every component reachable through its own
// steps, in deterministic discovery order. Memoised per ID for the
// whole exploration.
func (p *porState) desc(id types.ID) []types.ID {
	if d, ok := p.descs[id]; ok {
		return d
	}
	seen := map[types.ID]bool{id: true}
	closure := []types.ID{id}
	for k := 0; k < len(closure); k++ {
		for _, st := range p.sem.ComponentSteps(closure[k]) {
			for _, nxt := range st.Next {
				if !seen[nxt] {
					seen[nxt] = true
					closure = append(closure, nxt)
				}
			}
		}
	}
	p.descs[id] = closure
	return closure
}
