// Package lts provides explicit-state labelled transition systems built
// from λπ⩽ types, with bounded exploration, run completion, alphabet
// extraction and DOT export. It is the bridge between the type semantics
// (Def. 4.2) and the linear-time model checker (Def. 4.6).
//
// A state is a vector of hash-consed component IDs (the FlattenPar
// leaves, interned in the semantics' types.Interner), sorted by the
// exploration's own encounter rank. Each exploration owns its states:
// the vectors live in the LTS's arena, indexed by an open-addressed
// table of state numbers (statetable.go), and the shared interner never
// sees a whole state — a state's type is built only when asked for
// (StateType). Each exploration also keeps a rank table: per component,
// its typelts entry and the components it may synchronise with, fetched
// once. A state is expanded through that table into proposals, each an
// edit of the state's vector, and a successor is found from its edit by
// an incremental hash; only a new state's vector is ever built. Labels
// are interned into a dense per-LTS alphabet, and edges are stored
// CSR-style, one contiguous run per state — which is what lets the model
// checker precompute per-Büchi-state admit bitsets and walk the product
// with plain array indexing (see DESIGN.md). The arena, the edges and
// their offsets grow in chunks that are never copied (chunked), so an
// exploration allocates about what it keeps.
package lts

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"effpi/internal/typelts"
	"effpi/internal/types"
)

// ErrStateBound is the sentinel wrapped by every state-bound-exceeded
// error, so callers can classify the failure with errors.Is regardless of
// which engine (Explore or Incremental) hit the bound.
var ErrStateBound = errors.New("state bound exceeded")

// Edge is a transition to state Dst firing the label with index Label in
// the owning LTS's dense alphabet (LTS.Labels).
type Edge struct {
	Label int32
	Dst   int32
}

// LTS is a finite labelled transition system over type states.
// Every state has at least one outgoing edge: states with no type
// transitions are completed with a ✔ (terminated) or ⊠ (deadlock)
// self-loop so that all maximal runs are infinite (Def. 4.6 quantifies
// over complete runs; see DESIGN.md §4.4).
type LTS struct {
	// comps is the state arena: state s's component vector is the run of
	// comps starting at index compStart[s] (see StateComps).
	comps     chunked[types.ID]
	compStart chunked[int32]
	// in builds state types on demand (StateType); root, when non-nil,
	// is state 0's type as the caller gave it.
	in   *types.Interner
	root types.Type
	// Labels is the dense alphabet: one representative per distinct label
	// (by Key), in first-seen order. Edge.Label indexes into it.
	Labels []typelts.Label
	// edges holds the edges in CSR form: state s owns the run of edges
	// starting at index start[s] (see Out). start has an entry for every
	// expanded state.
	edges chunked[Edge]
	start chunked[int32]
	// Initial is the initial state index.
	Initial int
	// Truncated reports that exploration hit the state bound; verification
	// results on a truncated LTS are not trustworthy and the verifier
	// refuses to produce them.
	Truncated bool
	// Partial reports that the LTS is an on-demand fragment (an
	// Incremental snapshot with unexpanded states): discovered states that
	// were never expanded have no outgoing edges, so Deadlocked and
	// whole-space analyses are meaningless on it. Runs that only visit
	// expanded states — counterexample witnesses — replay fine.
	Partial bool
	// Sym is the symmetry bookkeeping of a symmetric exploration
	// (Options.Symmetry): the group, the root permutation, the per-edge
	// permutations and the per-state orbit sizes. Nil for plain
	// explorations.
	Sym *SymInfo
}

// SymInfo records the bookkeeping of a symmetric exploration. States of
// the owning LTS are orbit representatives; every edge carries the
// permutation that mapped its raw successor onto the canonical one, so
// counterexamples can be lifted back to concrete runs.
type SymInfo struct {
	// S is the group the exploration canonicalised under.
	S *Symmetry
	// RootPerm maps the caller's initial state onto the canonical root:
	// state Initial = RootPerm(init).
	RootPerm int32
	// edgePerms holds the permutation π of every edge at the edge's own
	// index: the raw successor u of the edge's source representative
	// satisfies dst = π(u).
	edgePerms chunked[int32]
	// OrbitSizes[s] is |orbit(s)| (1 when the canonicaliser fell back to
	// the identity for lack of residence info). Aligned with the states.
	OrbitSizes []int64
}

// EdgePerm returns the permutation recorded for the k-th outgoing edge
// of state s (the identity, 0, when the LTS was explored without
// symmetry).
func (l *LTS) EdgePerm(s, k int) int32 {
	if l.Sym == nil {
		return 0
	}
	return l.Sym.edgePerms.view(l.edgeRun(s))[k]
}

// Covered returns the number of concrete states the LTS represents: the
// state count itself for plain explorations, the sum of orbit sizes
// (saturating) for symmetric ones.
func (l *LTS) Covered() int64 {
	if l.Sym == nil {
		return int64(l.Len())
	}
	var sum int64
	for _, o := range l.Sym.OrbitSizes {
		sum = satAdd(sum, o)
	}
	return sum
}

// Options configures exploration.
type Options struct {
	// MaxStates bounds the exploration (default 1 << 20).
	MaxStates int
	// Progress, when non-nil, is called periodically during exploration —
	// every progressStride expanded states and once at the end — with the
	// running state and edge counts. It is called from the exploring
	// goroutine, never concurrently.
	Progress func(p Progress)
	// Symmetry, when non-nil, canonicalises every registered state to
	// its orbit representative under the given channel-permutation group
	// (see DetectSymmetry), recording the applied permutation per edge
	// in LTS.Sym. As a safety gate it is honoured only for the
	// explorations its soundness argument covers — closed (no observable
	// set), witness-only, over the same interner the group was detected
	// with — and ignored otherwise.
	Symmetry *Symmetry
	// PartialOrder, when non-nil, enables exploration-time partial-order
	// reduction (see por.go): each expanded state registers an ample
	// subset of its enabled transitions instead of all of them, sound
	// for properties that only observe the labels PartialOrder.Visible
	// reports. The verifier's planner never sets both reductions; as a
	// safety gate, PartialOrder is ignored under Symmetry.
	PartialOrder *POR
}

// Progress is a snapshot of a running exploration, delivered through
// Options.Progress.
type Progress struct {
	// States is the number of states discovered so far; Expanded of them
	// have had their successors computed.
	States, Expanded int
	// Edges is the number of transitions spliced so far.
	Edges int
}

// progressStride is how many states exploration expands between
// Progress callbacks. Exploration of one state is microseconds, so this
// keeps the callback off the hot path while still reporting every few
// hundred microseconds. cancelStride is the (smaller) interval between
// context polls: a poll is one atomic-ish check, so cancellation latency
// is bounded by a few dozen expansions.
const (
	progressStride = 512
	cancelStride   = 64
)

// DefaultMaxStates bounds exploration when Options.MaxStates is zero.
const DefaultMaxStates = 1 << 20

// Explore builds the reachable LTS of init under the given semantics.
//
// States are represented as rank-sorted vectors of hash-consed component
// IDs (the FlattenPar leaves), so a successor is multiset surgery —
// remove the acting components, splice in their cached replacements —
// and one probe of the exploration's state table finds it from that edit
// alone. No successor type tree is ever built or walked, and a
// successor's vector is built only when the state is new. Per-component
// steps and per-pair synchronisations come from the semantics'
// typelts.Cache, through the exploration's rank table. When sem
// carries a cache, it is reused (and extended), so repeated explorations
// of overlapping systems — the six Fig. 9 properties of one system, say
// — share their per-component work. The cache is safe for concurrent use, so explorations running on
// other goroutines may share it; the LTS does not depend on how they
// interleave (see DESIGN.md §Parallel verification engine).
func Explore(sem *typelts.Semantics, init types.Type, opts Options) (*LTS, error) {
	return ExploreContext(context.Background(), sem, init, opts)
}

// ExploreContext is Explore with cancellation: the exploration polls ctx
// between state expansions, and returns an error wrapping ctx.Err() as
// soon as the context is cancelled or its deadline passes. A cancelled exploration
// leaves any shared typelts.Cache fully usable — the cache is an
// append-only memo, so a later identical exploration produces the
// identical LTS (it just starts warmer).
func ExploreContext(ctx context.Context, sem *typelts.Semantics, init types.Type, opts Options) (*LTS, error) {
	b := prepBuilder(ctx, sem, init, opts)
	return b.l, b.exploreSerial()
}

// prepBuilder is the shared entry point of both exploration engines
// (Explore and NewIncremental): resolve the state bound, attach a private
// cache when the semantics has none (even a single exploration profits
// from hash-consed component identity, and the clone keeps the caller's
// value intact), and register the root state. The root-registration
// sequence is determinism-critical — encounter-rank assignment starts
// here — so both engines must run it identically: a witness extracted
// from an Incremental only replays against Explore-style numbering
// because the two share this path.
func prepBuilder(ctx context.Context, sem *typelts.Semantics, init types.Type, opts Options) *builder {
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if !sem.HasCompatibleCache() {
		clone := *sem
		clone.Cache = typelts.NewCache(sem.Env, sem.WitnessOnly)
		sem = &clone
	}
	b := newBuilder(sem, maxStates)
	b.ctx = ctx
	b.progress = opts.Progress
	if s := opts.Symmetry; s != nil && len(sem.Observable) == 0 && sem.WitnessOnly && s.in == sem.Cache.Interner() {
		b.sym = s
		b.l.Sym = &SymInfo{S: s}
	}
	if por := opts.PartialOrder; por != nil && b.sym == nil {
		b.por = newPORState(por, b.sem, &b.ranks)
		// Default proviso predicate: Explore makes ample decisions in
		// state-number order, so a state is decided iff its number
		// precedes the current one. The incremental engine overrides
		// this with its own expansion map.
		b.porExpanded = func(s int32) bool { return s < b.porCur }
	}
	root := sem.InternLeaves(init)
	b.orderComps(root)
	size := int64(1)
	if b.sym != nil {
		var canon []types.ID
		var perm int32
		canon, perm, size = b.sym.canonicalise(root, nil)
		b.l.Sym.RootPerm = perm
		if perm != 0 {
			// The canonical root is a different state; its type is
			// materialised from the interner like any other state's.
			root = canon
			b.orderComps(root)
			init = nil
		}
	}
	b.l.root = init
	b.internState(root, size)
	return b
}

// builder holds the mutable state of one exploration: the LTS under
// construction (whose arena holds the state vectors), the state table
// indexing that arena, the rank table and the dense label index. It is
// used by one goroutine.
type builder struct {
	sem       *typelts.Semantics
	l         *LTS
	table     stateTable
	ranks     rankTable
	labelIdx  map[typelts.LabelKey]int32
	maxStates int
	// rankScratch buffers the ranks during orderComps and materialise;
	// succBuf receives the successor vector materialise builds;
	// canonBuf receives symmetry representatives.
	rankScratch []int32
	succBuf     []types.ID
	canonBuf    []types.ID

	// The state being expanded (expandState): its vector, the rank of
	// each position, and the sum of its hash terms, which findEdit
	// adjusts by each proposal's edit. firstPos[r] is one plus the first
	// position holding rank r during the sync sweep, and zero otherwise.
	// nextAt holds, while findEdit compares a proposal in place, the
	// parent position each of its replacements goes before.
	cur      []types.ID
	curRanks []int32
	curSum   uint64
	firstPos []int32
	nextAt   []int

	// ctx is polled between expansions; a cancelled context aborts the
	// exploration with an error wrapping ctx.Err(). progress, when
	// non-nil, receives periodic Progress snapshots (see Options).
	ctx      context.Context
	progress func(Progress)

	// sym, when non-nil, canonicalises every registered successor to its
	// orbit representative (see Options.Symmetry); l.Sym records the
	// per-edge permutations and per-state orbit sizes alongside.
	sym *Symmetry

	// por, when non-nil, filters every expansion through the ample-set
	// computation (see por.go). Mutually exclusive with sym. porCur is
	// the state whose expansion is being decided; porExpanded reports
	// whether a state's own ample decision was already made — the cycle
	// proviso's notion of "closes a cycle". Both are maintained by the
	// driving engine (state-number order for Explore, expansion order
	// for the incremental one).
	por         *porState
	porCur      int32
	porExpanded func(int32) bool

	// props is the proposal buffer each state is expanded into; from is
	// the index of the expanded state's first edge.
	props []proposal
	from  int
}

func newBuilder(sem *typelts.Semantics, maxStates int) *builder {
	return &builder{
		sem:       sem,
		l:         &LTS{Initial: 0, in: sem.Cache.Interner()},
		table:     newStateTable(),
		ranks:     rankTable{sem: sem, idx: make(map[types.ID]int32, 64)},
		labelIdx:  make(map[typelts.LabelKey]int32, 16),
		maxStates: maxStates,
	}
}

// rankTable is the per-exploration table of components, indexed by the
// dense rank each component gets on first encounter in a registered
// state. State vectors are sorted by rank — NOT by interner ID value,
// whose assignment order is scheduler-dependent when concurrent
// explorations intern fresh successor types into one shared cache.
// Ordering by rank makes iteration order — and therefore proposal order,
// state numbering and the CSR arrays — independent of the interner's ID
// assignment order, which is what keeps an exploration over a shared
// cache deterministic (see DESIGN.md). Ranks are unique, so the
// rank-sorted vector is also the canonical key of the multiset.
//
// Per rank the table keeps what expansion asks of a component, fetched
// once per exploration rather than once per state: its typelts entry,
// its Y-limited solo steps, and the ranks it may synchronise with. A row
// is fetched when the first state holding it is expanded, so components
// of states that are only discovered cost no typelts work.
type rankTable struct {
	sem  *typelts.Semantics
	idx  map[types.ID]int32
	rows []rankRow
}

// rankRow is the rank table's row of one component.
type rankRow struct {
	id types.ID
	// comp is the component's typelts entry (nil until fetched) and solo
	// its steps that survive the Y-limitation.
	comp *typelts.Component
	solo []move
	// partners are the fetched ranks whose component an output of this
	// one may meet (typelts.MaySync), ascending; the list grows as rows
	// are fetched.
	partners []partner
}

// partner is one entry of a partner list: the input side's rank and the
// pair's synchronisations, looked up on first use.
type partner struct {
	rank    int32
	fetched bool
	moves   []move
}

// move is one step a row offers, solo or with a partner: the typelts
// step and the index of its label in the LTS's alphabet, -1 until an
// edge first carries it (register).
type move struct {
	st  *typelts.CompStep
	lid int32
	// next is st.Next with its ranks, sorted by rank; it is set once
	// every component of st.Next has a rank (rankNext).
	next []rankedID
}

// rankedID is a component ID with its rank.
type rankedID struct {
	id   types.ID
	rank int32
}

// movesOf wraps steps as moves with no label index yet.
func movesOf(steps []typelts.CompStep) []move {
	ms := make([]move, len(steps))
	for k := range steps {
		ms[k] = move{st: &steps[k], lid: -1}
	}
	return ms
}

// rankOf returns the rank of a component ID, assigning the next dense
// rank on first encounter.
func (t *rankTable) rankOf(id types.ID) int32 {
	if r, ok := t.idx[id]; ok {
		return r
	}
	r := int32(len(t.rows))
	t.idx[id] = r
	t.rows = append(t.rows, rankRow{id: id})
	return r
}

// fetch returns the row of rank r, fetching its typelts entry on first
// use and entering it into the partner lists: its own, from every
// fetched rank in ascending order, and every fetched rank's, at its
// place.
func (t *rankTable) fetch(r int32) *rankRow {
	row := &t.rows[r]
	if row.comp != nil {
		return row
	}
	c := t.sem.Component(row.id)
	row.comp = c
	for k := range c.Steps {
		if t.sem.KeepLabel(c.Steps[k].Label) {
			row.solo = append(row.solo, move{st: &c.Steps[k], lid: -1})
		}
	}
	for q := range t.rows {
		o := &t.rows[q]
		if o.comp == nil {
			continue
		}
		if typelts.MaySync(&c.Ports, &o.comp.Ports) {
			row.partners = append(row.partners, partner{rank: int32(q)})
		}
		if int32(q) != r && typelts.MaySync(&o.comp.Ports, &c.Ports) {
			k, _ := slices.BinarySearchFunc(o.partners, r, func(p partner, r int32) int { return int(p.rank - r) })
			o.partners = slices.Insert(o.partners, k, partner{rank: r})
		}
	}
	return row
}

// syncs returns the synchronisations of an output of rank x with an
// input of rank y, both fetched: none unless y is on x's partner list,
// and otherwise the pair's typelts.SyncSteps, looked up once.
func (t *rankTable) syncs(x, y int32) []move {
	ps := t.rows[x].partners
	k, ok := slices.BinarySearchFunc(ps, y, func(p partner, y int32) int { return int(p.rank - y) })
	if !ok {
		return nil
	}
	return t.partnerMoves(x, &ps[k])
}

// partnerMoves returns the synchronisations of an output of rank x with
// its partner p, looking them up on first use.
func (t *rankTable) partnerMoves(x int32, p *partner) []move {
	if !p.fetched {
		p.moves = movesOf(t.sem.SyncSteps(t.rows[x].id, t.rows[p.rank].id))
		p.fetched = true
	}
	return p.moves
}

// orderComps assigns ranks to every ID (in slice order, so new
// components are ranked in deterministic encounter order) and sorts the
// slice by rank.
func (b *builder) orderComps(ids []types.ID) {
	rs := b.rankScratch[:0]
	for _, id := range ids {
		rs = append(rs, b.ranks.rankOf(id))
	}
	b.rankScratch = rs
	sortByRanks(ids, rs)
}

// sortByRanks co-sorts ids with their ranks rs. Multisets arrive mostly
// sorted (the kept parent components already are), so the insertion
// sort is near-linear and compares plain ints.
func sortByRanks(ids []types.ID, rs []int32) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && rs[j] < rs[j-1]; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// internState registers the state with the given rank-sorted component
// vector, copying it into the arena when it is new; size is its orbit
// size under symmetry (canonicalise).
func (b *builder) internState(comps []types.ID, size int64) int32 {
	s, at, tag := b.table.find(b.l, comps)
	if s >= 0 {
		return s
	}
	return b.addState(comps, at, tag, size)
}

// addState copies a new state's vector into the arena and records it at
// the empty table slot a probe returned.
func (b *builder) addState(comps []types.ID, at int, tag uint32, size int64) int32 {
	s := int32(b.l.Len())
	b.l.addVector(comps)
	b.table.insert(at, tag, s)
	if b.sym != nil {
		b.l.Sym.OrbitSizes = append(b.l.Sym.OrbitSizes, size)
	}
	return s
}

func (b *builder) internLabel(key typelts.LabelKey, lab typelts.Label) int32 {
	if i, ok := b.labelIdx[key]; ok {
		return i
	}
	i := int32(len(b.l.Labels))
	b.labelIdx[key] = i
	b.l.Labels = append(b.l.Labels, lab)
	return i
}

// beginState opens the edge run of the state about to be expanded, with
// room for at most n edges in one chunk.
func (b *builder) beginState(n int) {
	b.l.edges.reserve(n)
	if b.sym != nil {
		b.l.Sym.edgePerms.reserve(n)
	}
	b.from = b.l.edges.pos
}

// stateEdges returns the edges of the state being expanded so far.
func (b *builder) stateEdges() []Edge { return b.l.edges.view(b.from, b.l.edges.pos) }

// addEdge appends (lid → dst) unless the current state already has it;
// an edge to a state that was new (fresh) cannot be a duplicate, so it
// skips the check. The check is a linear scan of the state's edges: no
// benchmark row has a state of out-degree above 12 (DESIGN.md §Edge
// dedup by linear scan). perm is the symmetry permutation recorded for the
// edge (0 = identity; always 0 without symmetry). When a duplicate
// (label, dst) pair is dropped, the first recorded permutation stands —
// any recorded permutation maps the canonical destination back to *a*
// raw successor of the source under that label, which is all the lift
// needs.
func (b *builder) addEdge(lid, dst, perm int32, fresh bool) {
	e := Edge{Label: lid, Dst: dst}
	if !fresh && slices.Contains(b.stateEdges(), e) {
		return
	}
	b.appendEdge(e, perm)
}

// appendEdge appends an edge to the state's run, keeping the per-edge
// permutations aligned when symmetry is active.
func (b *builder) appendEdge(e Edge, perm int32) {
	b.l.edges.push(e)
	if b.sym != nil {
		b.l.Sym.edgePerms.push(perm)
	}
}

// register is the shared successor-registration path of both engines
// (Explore and Incremental): find the proposal's successor, intern it
// and its label, and splice the edge. Without symmetry the successor is
// found from the edit alone (findEdit); only a new state is built,
// ranked and sorted. Under symmetry the successor is built and
// canonicalised to its orbit representative, and the canonicalisation
// permutation is recorded with the edge. Everything order-sensitive
// (ranks, state numbers, label indices, permutation table indices) is
// assigned here.
func (b *builder) register(p proposal) {
	var dst, perm int32
	fresh := false
	if b.sym == nil {
		var at int
		var tag uint32
		if dst, at, tag = b.findEdit(p); dst < 0 {
			dst, fresh = b.addState(b.materialise(p), at, tag, 1), true
		}
	} else {
		succ := b.materialise(p)
		var canon []types.ID
		var size int64
		canon, perm, size = b.sym.canonicalise(succ, b.canonBuf)
		if perm != 0 {
			b.canonBuf = canon
			succ = canon
			b.orderComps(succ)
		}
		n := b.l.Len()
		dst = b.internState(succ, size)
		fresh = int(dst) == n
	}
	lid := p.m.lid
	if lid < 0 {
		lid = b.internLabel(p.m.st.Key, p.m.st.Label)
		p.m.lid = lid
	}
	b.addEdge(lid, dst, perm, fresh)
}

// materialise builds the successor vector of a proposal in succBuf, rank
// sorted: the parent's vector without the acting positions, then the
// replacements, ranked in that order (so new components are ranked in
// deterministic encounter order).
func (b *builder) materialise(p proposal) []types.ID {
	succ, rs := b.succBuf[:0], b.rankScratch[:0]
	for k, c := range b.cur {
		if k != int(p.i) && k != int(p.j) {
			succ = append(succ, c)
			rs = append(rs, b.curRanks[k])
		}
	}
	for _, id := range p.m.st.Next {
		succ = append(succ, id)
		rs = append(rs, b.ranks.rankOf(id))
	}
	b.succBuf, b.rankScratch = succ, rs
	sortByRanks(succ, rs)
	return succ
}

// findEdit probes the state table for a proposal's successor without
// building it. The successor's hash is the parent's term sum minus the
// acting components' terms plus the replacements' (see statetable.go),
// and a candidate is compared in place against the parent with the edit
// applied (sameAsEdit). A replacement with no rank is in no registered
// state, so then no candidate can match and the probe only looks for the
// empty slot where the successor belongs. It returns what find returns.
func (b *builder) findEdit(p proposal) (state int32, at int, tag uint32) {
	sum, n := b.curSum-compTerm(b.cur[p.i]), len(b.cur)-1
	if p.j >= 0 {
		sum -= compTerm(b.cur[p.j])
		n--
	}
	for _, id := range p.m.st.Next {
		sum += compTerm(id)
	}
	n += len(p.m.st.Next)
	h := stateHash(sum, n)
	t := &b.table
	t.reserve(b.l)
	tag, mask := uint32(h>>32), len(t.slots)-1
	ranked := 0 // 1: the replacements are ranked and sorted; -1: one has no rank
	for i := int(h) & mask; ; i = (i + 1) & mask {
		sl := t.slots[i]
		if sl.state == 0 {
			return -1, i, tag
		}
		if sl.tag != tag {
			continue
		}
		if ranked == 0 {
			ranked = b.rankNext(p.m)
		}
		if ranked > 0 && b.sameAsEdit(b.l.StateComps(int(sl.state-1)), p, n) {
			return sl.state - 1, i, tag
		}
	}
}

// rankNext places a move's replacements for the state being expanded:
// it sorts them by rank (once per move, as soon as all of them have a
// rank) and fills nextAt with the parent position each one goes before.
// It reports 1, or -1 when a replacement has no rank yet.
func (b *builder) rankNext(m *move) int {
	if len(m.next) != len(m.st.Next) {
		for _, id := range m.st.Next {
			if _, ok := b.ranks.idx[id]; !ok {
				return -1
			}
		}
		next := make([]rankedID, len(m.st.Next))
		for k, id := range m.st.Next {
			next[k] = rankedID{id, b.ranks.idx[id]}
			for q := k; q > 0 && next[q].rank < next[q-1].rank; q-- {
				next[q], next[q-1] = next[q-1], next[q]
			}
		}
		m.next = next
	}
	at := b.nextAt[:0]
	for _, x := range m.next {
		k, _ := slices.BinarySearch(b.curRanks, x.rank)
		at = append(at, k)
	}
	b.nextAt = at
	return 1
}

// sameAsEdit reports whether the n-component state vector v is the
// successor of proposal p: the parent's vector without the acting
// positions, with the rank-sorted replacements inserted at their places
// (rankNext). It compares the parent's runs between those cut points in
// bulk.
func (b *builder) sameAsEdit(v []types.ID, p proposal, n int) bool {
	if len(v) != n {
		return false
	}
	comps := b.cur
	i, j := int(p.i), int(p.j)
	k, w, q := 0, 0, 0
	for {
		stop := len(comps)
		if i >= k {
			stop = min(stop, i)
		}
		if j >= k {
			stop = min(stop, j)
		}
		if q < len(b.nextAt) {
			stop = min(stop, b.nextAt[q])
		}
		if !slices.Equal(comps[k:stop], v[w:w+stop-k]) {
			return false
		}
		w += stop - k
		k = stop
		switch {
		case q < len(b.nextAt) && b.nextAt[q] == k:
			if v[w] != p.m.next[q].id {
				return false
			}
			w++
			q++
		case k == len(comps):
			return true
		default: // k is an acting position
			k++
		}
	}
}

// completeRun appends the run-completion self-loop of an edge-less state
// (✔^ω for proper termination, ⊠^ω for deadlock): a state whose
// expansion produced no edges gets exactly one completion edge.
func (b *builder) completeRun(next int) {
	if b.l.edges.pos == b.from {
		var lab typelts.Label = typelts.Stuck{}
		if len(b.l.StateComps(next)) == 0 {
			lab = typelts.Done{}
		}
		b.appendEdge(Edge{Label: b.internLabel(b.sem.Cache.LabelKeyOf(lab), lab), Dst: int32(next)}, 0)
	}
}

// proposal is one candidate edge of the state being expanded
// (expandState), as an edit of its vector: the acting positions and the
// move, whose step's Next replaces them and whose label the edge
// carries. No successor vector is built for it; register and the cycle
// proviso's probe find the successor from the edit (findEdit).
type proposal struct {
	m *move
	// i and j are the acting positions in the parent's component
	// multiset (j is -1 for an interleaving step). The ample-set
	// computation of partial-order reduction derives its independence
	// relation from them too.
	i, j int32
}

// expandState fills b.props with the edge proposals of the state comps,
// in the canonical per-state edge order: interleaving steps of each
// component (Y-limited), then pairwise synchronisations — an output of
// component i meeting an input of component j ≠ i (τ labels always
// survive the Y-limitation) — in ascending (i, j) order. Everything per
// component comes from its rank table row. The sync sweep walks, for
// each component with an output, only its partner ranks (the ranks its
// ports may meet), and of those only the ones present in the state:
// the state is rank-sorted, so ascending partner ranks are ascending
// positions, and the proposal list is exactly the one of a k(k−1) sweep
// over every ordered pair.
func (b *builder) expandState(comps []types.ID) {
	b.props = b.props[:0]
	t := &b.ranks
	rs := b.curRanks[:0]
	var sum uint64
	for _, id := range comps {
		rs = append(rs, t.idx[id]) // every component of a registered state is ranked
		sum += compTerm(id)
	}
	b.cur, b.curRanks, b.curSum = comps, rs, sum
	for i, r := range rs {
		solo := t.fetch(r).solo
		for k := range solo {
			b.props = append(b.props, proposal{m: &solo[k], i: int32(i), j: -1})
		}
	}
	if len(b.firstPos) < len(t.rows) {
		b.firstPos = append(b.firstPos, make([]int32, len(t.rows)-len(b.firstPos))...)
	}
	for i := len(rs) - 1; i >= 0; i-- {
		b.firstPos[rs[i]] = int32(i) + 1
	}
	for i, r := range rs {
		row := &t.rows[r]
		if !row.comp.Ports.HasOut {
			continue
		}
		for k := range row.partners {
			pt := &row.partners[k]
			j := int(b.firstPos[pt.rank]) - 1
			if j < 0 {
				continue
			}
			for ; j < len(rs) && rs[j] == pt.rank; j++ {
				if j == i {
					continue
				}
				moves := t.partnerMoves(r, pt)
				for s := range moves {
					b.props = append(b.props, proposal{m: &moves[s], i: int32(i), j: int32(j)})
				}
			}
		}
	}
	for _, r := range rs {
		b.firstPos[r] = 0
	}
}

// expand settles state s: it proposes the state's edges (expandState),
// opens the state's edge run with room for every proposal or the one
// completion edge, so the run never straddles chunks, and under
// partial-order reduction registers only an ample subset of the
// proposals, otherwise every proposal, in proposal order — the canonical
// per-state edge order shared by Explore and the incremental engine. A
// state left without edges gets its completion edge (completeRun). It
// returns the index of the state's first edge.
func (b *builder) expand(s int) int {
	comps := b.l.StateComps(s)
	b.porCur = int32(s)
	b.expandState(comps)
	b.beginState(max(len(b.props), 1))
	var sel []int32
	if b.por != nil {
		sel = b.por.ample(comps, b.curRanks, b.props, b.fresh)
	}
	if sel != nil {
		for _, k := range sel {
			b.register(b.props[k])
		}
	} else {
		for _, p := range b.props {
			b.register(p)
		}
	}
	b.completeRun(s)
	return b.from
}

// boundExceeded truncates the LTS and reports the state-bound error.
func (b *builder) boundExceeded() error {
	b.l.Truncated = true
	b.l.sealTruncated()
	return fmt.Errorf("lts: state bound %d exceeded (type may be infinite-state; see Lemma 4.7 and §5.1 limitation 2): %w", b.maxStates, ErrStateBound)
}

// cancelled reports (and wraps) a cancelled context. The partial LTS is
// sealed so its CSR arrays stay consistent, but a cancelled exploration's
// LTS must not be consumed — only the error matters.
func (b *builder) cancelled() error {
	b.l.sealTruncated()
	return fmt.Errorf("lts: exploration cancelled after %d states: %w", b.l.Len(), b.ctx.Err())
}

// report delivers a Progress snapshot (expanded = the number of states
// whose successors are spliced).
func (b *builder) report(expanded int) {
	if b.progress != nil {
		b.progress(Progress{States: b.l.Len(), Expanded: expanded, Edges: b.l.NumEdges()})
	}
}

// exploreSerial is Explore's worklist engine: one pass over the growing
// state list, expanding and splicing in place.
func (b *builder) exploreSerial() error {
	for next := 0; next < b.l.Len(); next++ {
		if b.l.Len() > b.maxStates {
			return b.boundExceeded()
		}
		if next%cancelStride == 0 && b.ctx.Err() != nil {
			return b.cancelled()
		}
		if next%progressStride == 0 && next > 0 {
			b.report(next)
		}
		b.l.start.add(int32(b.expand(next)))
	}
	b.report(b.l.Len())
	return nil
}

// sealTruncated gives the states that were discovered but never
// processed an empty edge run.
func (l *LTS) sealTruncated() {
	for l.start.n < l.Len() {
		l.start.add(int32(l.edges.pos))
	}
}

// FromAdjacency builds an LTS from an explicit adjacency list — states[i]
// has the outgoing edges adj[i]. It is meant for tests and hand-built
// models; Explore is the production constructor. The states are interned
// into a private interner, so StateType returns a ≡-equivalent type.
func FromAdjacency(states []types.Type, adj [][]AdjEdge, initial int) *LTS {
	l := &LTS{Initial: initial, in: types.NewInterner()}
	labelIdx := map[string]int32{}
	var ids []types.ID
	for i := range states {
		ids = ids[:0]
		for _, c := range types.FlattenPar(states[i]) {
			ids = append(ids, l.in.Intern(c))
		}
		l.addVector(ids)
		l.edges.reserve(len(adj[i]))
		l.start.add(int32(l.edges.pos))
		for _, e := range adj[i] {
			key := e.Label.Key()
			lid, ok := labelIdx[key]
			if !ok {
				lid = int32(len(l.Labels))
				labelIdx[key] = lid
				l.Labels = append(l.Labels, e.Label)
			}
			l.edges.push(Edge{Label: lid, Dst: int32(e.Dst)})
		}
	}
	return l
}

// AdjEdge is one labelled edge of a FromAdjacency adjacency list.
type AdjEdge struct {
	Label typelts.Label
	Dst   int
}

// Len returns the number of states.
func (l *LTS) Len() int { return l.compStart.n }

// addVector appends a state's component vector to the arena as one run.
func (l *LTS) addVector(comps []types.ID) {
	l.comps.reserve(len(comps))
	l.compStart.add(int32(l.comps.pos))
	l.comps.pushAll(comps)
}

// StateComps returns the component vector of state s: the interned IDs
// of its FlattenPar leaves, in the exploration's rank order (each
// multiset has exactly one such vector). The slice is a view into the
// LTS's arena; callers must not mutate it.
func (l *LTS) StateComps(s int) []types.ID {
	return l.comps.view(runBounds(&l.compStart, s, l.comps.pos))
}

// StateType builds the type of state s on demand. State 0 is the
// caller's initial type as given unless symmetry moved the root to
// another representative; every other state is the interner's
// representative of the parallel composition of its components.
func (l *LTS) StateType(s int) types.Type {
	if s == 0 && l.root != nil {
		return l.root
	}
	// InternPar sorts its argument in place; the arena stays rank-sorted.
	return l.in.TypeOf(l.in.InternPar(slices.Clone(l.StateComps(s))))
}

// StateComponents returns the component types of state s — the
// FlattenPar leaves of StateType(s) — without interning the state: the
// caller's root flattened for a state 0 given as such, and otherwise the
// leaves of each component's type in ascending ID order, the order
// InternPar builds a state's type in (a component whose representative
// is nil has none).
func (l *LTS) StateComponents(s int) []types.Type {
	if s == 0 && l.root != nil {
		return types.FlattenPar(l.root)
	}
	ids := slices.Clone(l.StateComps(s))
	slices.Sort(ids)
	out := make([]types.Type, 0, len(ids))
	for _, id := range ids {
		out = types.AppendParLeaves(out, l.in.TypeOf(id))
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Out returns the outgoing edges of state s (a view into the LTS's edge
// chunks; callers must not mutate it). A state that was not expanded has
// none.
func (l *LTS) Out(s int) []Edge {
	if s >= l.start.n {
		return nil
	}
	return l.edges.view(l.edgeRun(s))
}

// edgeRun returns the bounds of state s's edge run, for view.
func (l *LTS) edgeRun(s int) (lo, hi int) {
	return runBounds(&l.start, s, l.edges.pos)
}

// LabelOf resolves an edge's label index to the label itself.
func (l *LTS) LabelOf(e Edge) typelts.Label { return l.Labels[e.Label] }

// Alphabet returns one representative of every distinct label (by Key),
// sorted by key for determinism. This is the finite action set AΓ(T) of
// the paper (used by Def. 4.8 and Thm. 4.10).
func (l *LTS) Alphabet() []typelts.Label {
	// Each key is rendered once: Key builds Canon strings.
	type keyed struct {
		lab typelts.Label
		key string
	}
	ks := make([]keyed, len(l.Labels))
	for i, lab := range l.Labels {
		ks[i] = keyed{lab, lab.Key()}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	out := make([]typelts.Label, len(ks))
	for i, k := range ks {
		out[i] = k.lab
	}
	return out
}

// NumEdges returns the total number of transitions.
func (l *LTS) NumEdges() int { return l.edges.n }

// Deadlocked reports whether any reachable state is completed with ⊠.
// Labels enter the dense alphabet only when an edge fires them, so a ⊠
// in the alphabet is equivalent to a ⊠ edge.
func (l *LTS) Deadlocked() bool {
	for _, lab := range l.Labels {
		if _, ok := lab.(typelts.Stuck); ok {
			return true
		}
	}
	return false
}

// DOT renders the LTS in Graphviz format for inspection.
func (l *LTS) DOT() string {
	var b strings.Builder
	b.WriteString("digraph lts {\n  rankdir=LR;\n")
	fmt.Fprintf(&b, "  init [shape=point];\n  init -> s%d;\n", l.Initial)
	for i := 0; i < l.Len(); i++ {
		fmt.Fprintf(&b, "  s%d [label=%q];\n", i, truncate(l.StateType(i).String(), 60))
	}
	for src := 0; src < l.Len(); src++ {
		for _, e := range l.Out(src) {
			fmt.Fprintf(&b, "  s%d -> s%d [label=%q];\n", src, e.Dst, truncate(l.LabelOf(e).String(), 40))
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// chunkFirstLog and chunkCapLog fix the chunk geometry of the LTS's
// arrays: the first chunk has room for 1<<chunkFirstLog elements, each
// next one for twice as many, up to 1<<chunkCapLog, and every later one
// for 1<<chunkCapLog. The cap bounds the room a finished exploration
// leaves unused. Tests shrink both to put chunk boundaries inside small
// explorations.
var chunkFirstLog, chunkCapLog = 6, 14

// chunked is an append-only array whose elements live in chunks that are
// never copied or moved, so views of it stay valid while it grows, and
// growing it allocates only what it keeps. The index space is split
// into slots by the chunk geometry (slotOf, slotBase), and chunk k holds
// the elements of slot k. Elements that must stay contiguous — a state's
// component vector, its edges — form a run that is reserved before it
// is pushed: a run that does not fit in the rest of the current slot
// starts the next chunk, leaving the rest of the slot unused, so no run
// straddles chunks. A run longer than its slot gets a chunk of its own
// that spans the following slots, which stay nil. Element indices,
// gaps included, are what the offset arrays hold.
type chunked[T any] struct {
	chunks [][]T
	// pos is the index the next element gets, end the end of the last
	// chunk's slot, and n the number of elements held.
	pos, end, n int
}

// slotOf returns the slot holding index i.
func slotOf(i int) int {
	if i < 1<<chunkCapLog {
		return bits.Len(uint(i >> chunkFirstLog))
	}
	return chunkCapLog - chunkFirstLog + i>>chunkCapLog
}

// slotBase returns the first index of slot k.
func slotBase(k int) int {
	g := chunkCapLog - chunkFirstLog
	switch {
	case k == 0:
		return 0
	case k <= g:
		return 1 << (chunkFirstLog + k - 1)
	default:
		return (k - g) << chunkCapLog
	}
}

// reserve makes room for a run of n elements: the next n pushes land in
// one chunk.
func (c *chunked[T]) reserve(n int) {
	if n == 0 || c.pos+n <= c.end {
		return
	}
	k := 0
	if c.pos > 0 {
		k = slotOf(c.pos-1) + 1
	}
	// A chunk left empty by a reserved run that was never pushed is
	// replaced; the slots an oversized chunk spans stay nil.
	c.chunks = c.chunks[:min(k, len(c.chunks))]
	for len(c.chunks) < k {
		c.chunks = append(c.chunks, nil)
	}
	base, size := slotBase(k), slotBase(k+1)-slotBase(k)
	c.chunks = append(c.chunks, make([]T, 0, max(size, n)))
	c.pos, c.end = base, base+size
}

// push appends x to the reserved run.
func (c *chunked[T]) push(x T) {
	k := len(c.chunks) - 1
	c.chunks[k] = append(c.chunks[k], x)
	c.pos++
	c.n++
}

// pushAll appends xs to the reserved run.
func (c *chunked[T]) pushAll(xs []T) {
	if len(xs) == 0 {
		return
	}
	k := len(c.chunks) - 1
	c.chunks[k] = append(c.chunks[k], xs...)
	c.pos += len(xs)
	c.n += len(xs)
}

// add appends x as a run of its own; an array of single-element runs
// has no gaps, so its element i is at index i.
func (c *chunked[T]) add(x T) {
	c.reserve(1)
	c.push(x)
}

// at returns the element at index i.
func (c *chunked[T]) at(i int) T {
	k := slotOf(i)
	return c.chunks[k][i-slotBase(k)]
}

// set overwrites the element at index i.
func (c *chunked[T]) set(i int, x T) {
	k := slotOf(i)
	c.chunks[k][i-slotBase(k)] = x
}

// view returns the run that starts at index lo and ends at hi or at the
// end of its chunk, whichever comes first; runBounds reads lo and hi
// from an offset array. A run that ends at its chunk's end is the last
// in its chunk, and the next run starts in a later chunk. The slice is a
// view into the chunk, capped so an append cannot write past the run.
func (c *chunked[T]) view(lo, hi int) []T {
	if lo >= hi {
		return nil
	}
	k := slotOf(lo)
	if k >= len(c.chunks) {
		return nil
	}
	ch, base := c.chunks[k], slotBase(k)
	if lo-base >= len(ch) {
		return nil // an empty run after the last element of its chunk
	}
	hi = min(hi-base, len(ch))
	return ch[lo-base : hi : hi]
}

// frozen returns a copy of c that shares its chunks but not their
// headers, so it reads the elements held now while c grows.
func (c *chunked[T]) frozen() chunked[T] {
	f := *c
	f.chunks = slices.Clone(c.chunks)
	return f
}

// runBounds returns the bounds of the run of entry s of the offset array
// offs, for view: the entry itself, and the next entry or, after the
// last entry, pos, the index of the next element.
func runBounds(offs *chunked[int32], s, pos int) (lo, hi int) {
	k := slotOf(s)
	ch, i := offs.chunks[k], s-slotBase(k)
	switch {
	case i+1 < len(ch):
		return int(ch[i]), int(ch[i+1])
	case s+1 < offs.n:
		return int(ch[i]), int(offs.at(s + 1))
	default:
		return int(ch[i]), pos
	}
}
