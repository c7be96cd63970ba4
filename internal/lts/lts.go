// Package lts provides explicit-state labelled transition systems built
// from λπ⩽ types, with bounded exploration, run completion, alphabet
// extraction and DOT export. It is the bridge between the type semantics
// (Def. 4.2) and the linear-time model checker (Def. 4.6).
//
// A state is a multiset of hash-consed component IDs (the FlattenPar
// leaves, interned in the semantics' types.Interner). Each exploration
// ranks the components it meets in encounter order, giving the k-th
// copy of a component a rank of its own, and stores a state as one
// fixed-width key: the bitset of its components' ranks. Key equality is
// multiset equality, so the open-addressed table of state numbers
// (statetable.go) compares keys only, and the shared interner never sees
// a whole state — a state's type is built only when asked for
// (StateType). The exploration's rank table keeps, per component, its
// typelts entry and the components it may synchronise with, fetched
// once. A state is expanded through that table into proposals, each an
// edit of the state's key, and a successor's key is the parent's with
// the acting components' bits cleared and the replacements' bits set.
// Labels are interned into a dense per-LTS alphabet, and edges are
// stored CSR-style, one contiguous run per state — which is what lets
// the model checker precompute per-Büchi-state admit bitsets and walk
// the product with plain array indexing (see DESIGN.md). The keys, the
// edges and their offsets grow in chunks that are never copied
// (chunked), so an exploration allocates about what it keeps.
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
	// keys is the state store: state s's key is the 1<<wlog words
	// starting at index s<<wlog (see key). Every word count is a power of
	// two and so are the chunks' sizes, so the keys are packed without
	// gaps.
	keys chunked[uint64]
	wlog uint
	// comp and first decode a key: rank r is a copy of component comp[r],
	// whose first copy has rank first[r] (r itself for a first copy).
	comp  []types.ID
	first []int32
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
	rs := b.orderComps(sem.InternLeaves(init))
	size := int64(1)
	if b.sym != nil {
		var canon []types.ID
		var perm int32
		canon, perm, size = b.sym.canonicalise(b.idsOf(rs), nil)
		b.l.Sym.RootPerm = perm
		if perm != 0 {
			// The canonical root is a different state; its type is
			// materialised from the interner like any other state's.
			rs = b.orderComps(canon)
			init = nil
		}
	}
	b.l.root = init
	b.internState(rs, size)
	return b
}

// builder holds the mutable state of one exploration: the LTS under
// construction (whose store holds the state keys), the state table
// indexing that store, the rank table and the dense label index. It is
// used by one goroutine.
type builder struct {
	sem       *typelts.Semantics
	l         *LTS
	table     stateTable
	ranks     rankTable
	labelIdx  map[typelts.LabelKey]int32
	maxStates int
	// rankScratch buffers the ranks during orderComps and materialise;
	// key receives the keys findEdit and keyOf build; succBuf receives
	// the vectors idsOf decodes for symmetry to canonicalise, and
	// canonBuf their representatives.
	rankScratch []int32
	key         []uint64
	succBuf     []types.ID
	canonBuf    []types.ID

	// The state being expanded (expandState): its key, which findEdit
	// edits per proposal, and the first rank of each of its components,
	// ascending. firstPos[r] is one plus the first position holding rank
	// r during the sync sweep, and zero otherwise.
	curKey   []uint64
	curRanks []int32
	firstPos []int32

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
	l := &LTS{Initial: 0, in: sem.Cache.Interner()}
	return &builder{
		sem:       sem,
		l:         l,
		table:     newStateTable(),
		ranks:     rankTable{sem: sem, l: l, idx: make(map[types.ID]int32, 64)},
		labelIdx:  make(map[typelts.LabelKey]int32, 16),
		maxStates: maxStates,
	}
}

// rankTable is the per-exploration table of component ranks. A component
// gets a dense rank on first encounter in a registered state, and its
// k-th copy gets a rank of its own the first time a state holds k+1
// copies, so a state's key — the bitset of its components' ranks — is
// exact: a state with m copies of a component holds the ranks of copies
// 0…m−1. Expansion orders a state's components by their first copy's
// rank — NOT by interner ID value, whose assignment order is
// scheduler-dependent when concurrent explorations intern fresh
// successor types into one shared cache. Ordering by rank makes
// iteration order — and therefore proposal order, state numbering and
// the CSR arrays — independent of the interner's ID assignment order,
// which is what keeps an exploration over a shared cache deterministic
// (see DESIGN.md).
//
// Per first rank the table keeps what expansion asks of a component,
// fetched once per exploration rather than once per state: its typelts
// entry, its Y-limited solo steps, and the ranks it may synchronise
// with. A row is fetched when the first state holding it is expanded, so
// components of states that are only discovered cost no typelts work.
// The ranks' components and first copies are kept in the LTS, which
// decodes keys with them.
type rankTable struct {
	sem *typelts.Semantics
	l   *LTS
	// idx maps a component to its first rank.
	idx  map[types.ID]int32
	rows []rankRow
}

// rankRow is the rank table's row of one rank. Only a first copy's row
// is ever fetched; a further copy's row is empty.
type rankRow struct {
	// comp is the component's typelts entry (nil until fetched) and solo
	// its steps that survive the Y-limitation.
	comp *typelts.Component
	solo []move
	// partners are the fetched ranks whose component an output of this
	// one may meet (typelts.MaySync), ascending; the list grows as rows
	// are fetched.
	partners []partner
	// copies are the ranks of the component's copies after the first,
	// in copy order.
	copies []int32
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
	// next holds the first ranks of st.Next; it is set once every
	// component of st.Next has a rank (nextRanks).
	next []int32
}

// movesOf wraps steps as moves with no label index yet.
func movesOf(steps []typelts.CompStep) []move {
	ms := make([]move, len(steps))
	for k := range steps {
		ms[k] = move{st: &steps[k], lid: -1}
	}
	return ms
}

// rankOf returns the first rank of a component ID, assigning the next
// dense rank on first encounter.
func (t *rankTable) rankOf(id types.ID) int32 {
	if r, ok := t.idx[id]; ok {
		return r
	}
	r := t.newRank(id, int32(len(t.rows)))
	t.idx[id] = r
	return r
}

// newRank assigns the next dense rank to a copy of component id whose
// first copy has rank first.
func (t *rankTable) newRank(id types.ID, first int32) int32 {
	r := int32(len(t.rows))
	t.rows = append(t.rows, rankRow{})
	t.l.comp = append(t.l.comp, id)
	t.l.first = append(t.l.first, first)
	return r
}

// keyOf builds in key the key of the state with sorted first ranks rs,
// at the store's width. It ranks the copies no earlier state held
// first (addCopies), and reports whether a new rank widened the keys
// (LTS.fit).
func (t *rankTable) keyOf(rs []int32, key []uint64) (_ []uint64, widened bool) {
	t.addCopies(rs)
	widened = t.l.fit()
	key = append(key[:0], make([]uint64, 1<<t.l.wlog)...)
	for _, r := range rs {
		t.putCopy(key, r)
	}
	return key, widened
}

// addCopies ranks every copy of the state whose sorted first ranks are
// rs.
func (t *rankTable) addCopies(rs []int32) {
	for lo := 0; lo < len(rs); {
		r, hi := rs[lo], lo+1
		for hi < len(rs) && rs[hi] == r {
			hi++
		}
		for len(t.rows[r].copies) < hi-lo-1 {
			c := t.newRank(t.l.comp[r], r)
			t.rows[r].copies = append(t.rows[r].copies, c)
		}
		lo = hi
	}
}

// takeCopy clears from key the bit of the highest copy of first rank r
// it holds.
func (t *rankTable) takeCopy(key []uint64, r int32) {
	cs := t.rows[r].copies
	for k := len(cs) - 1; k >= 0; k-- {
		if hasBit(key, cs[k]) {
			key[cs[k]>>6] &^= 1 << (cs[k] & 63)
			return
		}
	}
	key[r>>6] &^= 1 << (r & 63)
}

// putCopy sets in key the bit of the lowest copy of first rank r it does
// not hold, and reports false when that copy has no rank yet.
func (t *rankTable) putCopy(key []uint64, r int32) bool {
	if !hasBit(key, r) {
		key[r>>6] |= 1 << (r & 63)
		return true
	}
	for _, c := range t.rows[r].copies {
		if !hasBit(key, c) {
			key[c>>6] |= 1 << (c & 63)
			return true
		}
	}
	return false
}

func hasBit(key []uint64, r int32) bool { return key[r>>6]&(1<<(r&63)) != 0 }

// nextRanks returns the first ranks of a move's replacements, looked up
// once, as soon as every one of them has a rank; before, it reports
// false.
func (t *rankTable) nextRanks(m *move) ([]int32, bool) {
	if len(m.next) == len(m.st.Next) {
		return m.next, true
	}
	for _, id := range m.st.Next {
		if _, ok := t.idx[id]; !ok {
			return nil, false
		}
	}
	m.next = make([]int32, len(m.st.Next))
	for k, id := range m.st.Next {
		m.next[k] = t.idx[id]
	}
	return m.next, true
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
	c := t.sem.Component(t.l.comp[r])
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
		p.moves = movesOf(t.sem.SyncSteps(t.l.comp[x], t.l.comp[p.rank]))
		p.fetched = true
	}
	return p.moves
}

// orderComps assigns first ranks to every ID (in slice order, so new
// components are ranked in deterministic encounter order) and returns
// them, sorted, in rankScratch.
func (b *builder) orderComps(ids []types.ID) []int32 {
	rs := b.rankScratch[:0]
	for _, id := range ids {
		rs = append(rs, b.ranks.rankOf(id))
	}
	b.rankScratch = rs
	sortRanks(rs)
	return rs
}

// sortRanks sorts first ranks. Multisets arrive mostly sorted (the kept
// parent components already are), so the insertion sort is near-linear.
func sortRanks(rs []int32) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j] < rs[j-1]; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// idsOf translates first ranks into the component vector, in succBuf.
func (b *builder) idsOf(rs []int32) []types.ID {
	ids := b.succBuf[:0]
	for _, r := range rs {
		ids = append(ids, b.l.comp[r])
	}
	b.succBuf = ids
	return ids
}

// keyOf builds in b.key the key of the state with sorted first ranks
// rs (rankTable.keyOf). When the keys widen, it rehashes the table and
// widens the key of the state being expanded.
func (b *builder) keyOf(rs []int32) []uint64 {
	var widened bool
	if b.key, widened = b.ranks.keyOf(rs, b.key); widened {
		b.table.rehash(b.l, len(b.table.slots))
		b.curKey = append(b.curKey, make([]uint64, 1<<b.l.wlog-len(b.curKey))...)
	}
	return b.key
}

// internState registers the state with the given sorted first ranks,
// storing its key when it is new; size is its orbit size under symmetry
// (canonicalise).
func (b *builder) internState(rs []int32, size int64) int32 {
	s, at, tag := b.table.find(b.l, b.keyOf(rs))
	if s >= 0 {
		return s
	}
	return b.addState(b.key, at, tag, size)
}

// addState stores a new state's key and records it at the empty table
// slot a probe returned.
func (b *builder) addState(key []uint64, at int, tag uint32, size int64) int32 {
	s := int32(b.l.Len())
	b.l.addKey(key)
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
// found from the edited key alone (findEdit); only when a replacement,
// or a copy of one, has no rank yet is the successor's rank vector built
// to rank it. Under symmetry the successor's vector is built and
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
			if at < 0 {
				_, at, tag = b.table.find(b.l, b.keyOf(b.materialise(p)))
			}
			dst, fresh = b.addState(b.key, at, tag, 1), true
		}
	} else {
		rs := b.materialise(p)
		var canon []types.ID
		var size int64
		canon, perm, size = b.sym.canonicalise(b.idsOf(rs), b.canonBuf)
		if perm != 0 {
			b.canonBuf = canon
			rs = b.orderComps(canon)
		}
		n := b.l.Len()
		dst = b.internState(rs, size)
		fresh = int(dst) == n
	}
	lid := p.m.lid
	if lid < 0 {
		lid = b.internLabel(p.m.st.Key, p.m.st.Label)
		p.m.lid = lid
	}
	b.addEdge(lid, dst, perm, fresh)
}

// materialise builds the successor's first ranks in rankScratch,
// sorted: the parent's without the acting positions, then the
// replacements', ranked in that order (so new components are ranked in
// deterministic encounter order).
func (b *builder) materialise(p proposal) []int32 {
	rs := b.rankScratch[:0]
	for k, r := range b.curRanks {
		if k != int(p.i) && k != int(p.j) {
			rs = append(rs, r)
		}
	}
	for _, id := range p.m.st.Next {
		rs = append(rs, b.ranks.rankOf(id))
	}
	b.rankScratch = rs
	sortRanks(rs)
	return rs
}

// findEdit probes the state table for a proposal's successor without
// building its components. It builds the successor's key in b.key from
// the parent's: the acting components' highest copies out, the
// replacements' lowest free copies in. A replacement, or a copy of one,
// with no rank is in no registered state, so then the successor is new
// and findEdit returns -1 without probing, with at -1 too. Otherwise it
// returns what find returns.
func (b *builder) findEdit(p proposal) (state int32, at int, tag uint32) {
	t := &b.ranks
	next, ok := t.nextRanks(p.m)
	if !ok {
		return -1, -1, 0
	}
	key := append(b.key[:0], b.curKey...)
	b.key = key
	t.takeCopy(key, b.curRanks[p.i])
	if p.j >= 0 {
		t.takeCopy(key, b.curRanks[p.j])
	}
	for _, r := range next {
		if !t.putCopy(key, r) {
			return -1, -1, 0
		}
	}
	return b.table.find(b.l, key)
}

// completeRun appends the run-completion self-loop of the state just
// expanded when it has no edges (✔^ω for proper termination, ⊠^ω for
// deadlock): a state whose expansion produced no edges gets exactly one
// completion edge.
func (b *builder) completeRun(next int) {
	if b.l.edges.pos == b.from {
		var lab typelts.Label = typelts.Stuck{}
		if len(b.curRanks) == 0 {
			lab = typelts.Done{}
		}
		b.appendEdge(Edge{Label: b.internLabel(b.sem.Cache.LabelKeyOf(lab), lab), Dst: int32(next)}, 0)
	}
}

// proposal is one candidate edge of the state being expanded
// (expandState), as an edit of its components: the acting positions and
// the move, whose step's Next replaces them and whose label the edge
// carries. No successor is built for it; register and the cycle
// proviso's probe find the successor from the edited key (findEdit).
type proposal struct {
	m *move
	// i and j are the acting positions in the parent's component
	// multiset (j is -1 for an interleaving step). The ample-set
	// computation of partial-order reduction derives its independence
	// relation from them too.
	i, j int32
}

// expandState decodes state s's key into b.curKey and b.curRanks and
// fills b.props with its edge proposals, in the canonical per-state edge
// order: interleaving steps of each component (Y-limited), then pairwise
// synchronisations — an output of component i meeting an input of
// component j ≠ i (τ labels always survive the Y-limitation) — in
// ascending (i, j) order, positions counted in first-rank order.
// Everything per component comes from its rank table row. The sync sweep
// walks, for each component with an output, only its partner ranks (the
// ranks its ports may meet), and of those only the ones present in the
// state: ascending partner ranks are ascending positions, and the
// proposal list is exactly the one of a k(k−1) sweep over every ordered
// pair.
func (b *builder) expandState(s int) {
	b.props = b.props[:0]
	t := &b.ranks
	b.curKey = append(b.curKey[:0], b.l.key(s)...)
	rs := b.l.ranksOf(b.curKey, b.curRanks)
	b.curRanks = rs
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
	b.porCur = int32(s)
	b.expandState(s)
	b.beginState(max(len(b.props), 1))
	var sel []int32
	if b.por != nil {
		sel = b.por.ample(b.curRanks, b.props, b.fresh)
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
	t := rankTable{l: l, idx: map[types.ID]int32{}}
	labelIdx := map[string]int32{}
	var rs []int32
	var key []uint64
	for i := range states {
		rs = rs[:0]
		for _, c := range types.FlattenPar(states[i]) {
			rs = append(rs, t.rankOf(l.in.Intern(c)))
		}
		sortRanks(rs)
		key, _ = t.keyOf(rs, key)
		l.addKey(key)
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
func (l *LTS) Len() int { return l.keys.n >> l.wlog }

// key returns the key of state s, a view into the store.
func (l *LTS) key(s int) []uint64 {
	return l.keys.view(s<<l.wlog, (s+1)<<l.wlog)
}

// addKey stores the key of the next state as one run.
func (l *LTS) addKey(key []uint64) {
	l.keys.reserve(len(key))
	l.keys.pushAll(key)
}

// fit doubles the key width until every rank has a bit, rewriting every
// stored key at the new width, and reports whether it widened. The old
// store is left as it was, so an earlier snapshot still reads it.
func (l *LTS) fit() bool {
	widened := false
	for len(l.first) > 64<<l.wlog {
		old, w := l.keys, 1<<l.wlog
		pad := make([]uint64, w)
		l.keys = chunked[uint64]{}
		for s := range old.n / w {
			l.keys.reserve(2 * w)
			l.keys.pushAll(old.view(s*w, s*w+w))
			l.keys.pushAll(pad)
		}
		l.wlog++
		widened = true
	}
	return widened
}

// ranksOf decodes key into the first ranks of its components, ascending,
// in rs's storage: the exploration's rank order, with the copies of a
// component together at its first copy's rank.
func (l *LTS) ranksOf(key []uint64, rs []int32) []int32 {
	rs = rs[:0]
	for i, w := range key {
		for ; w != 0; w &= w - 1 {
			f := l.first[i<<6|bits.TrailingZeros64(w)]
			rs = append(rs, f)
			for k := len(rs) - 1; k > 0 && f < rs[k-1]; k-- {
				rs[k], rs[k-1] = rs[k-1], f
			}
		}
	}
	return rs
}

// StateComps returns the component vector of state s: the interned IDs
// of its FlattenPar leaves, in the exploration's rank order (each
// multiset has exactly one such vector). The slice is decoded from the
// state's key afresh on every call; the caller owns it.
func (l *LTS) StateComps(s int) []types.ID {
	rs := l.ranksOf(l.key(s), nil)
	if len(rs) == 0 {
		return nil
	}
	ids := make([]types.ID, len(rs))
	for k, r := range rs {
		ids[k] = l.comp[r]
	}
	return ids
}

// StateType builds the type of state s on demand. State 0 is the
// caller's initial type as given unless symmetry moved the root to
// another representative; every other state is the interner's
// representative of the parallel composition of its components.
func (l *LTS) StateType(s int) types.Type {
	if s == 0 && l.root != nil {
		return l.root
	}
	return l.in.TypeOf(l.in.InternPar(l.StateComps(s)))
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
	ids := l.StateComps(s)
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
// key, its edges — form a run that is reserved before it is pushed: a
// run that does not fit in the rest of the current slot starts the next
// chunk, leaving the rest of the slot unused, so no run straddles
// chunks. A run longer than its slot gets a chunk of its own
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
