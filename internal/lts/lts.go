// Package lts provides explicit-state labelled transition systems built
// from λπ⩽ types, with bounded exploration, run completion, alphabet
// extraction and DOT export. It is the bridge between the type semantics
// (Def. 4.2) and the linear-time model checker (Def. 4.6).
//
// State identity is hash-consed: exploration interns every state in a
// types.Interner (Canon-equal states get the same integer ID), so the
// frontier set is a map over ints, not canonical strings. Labels are
// interned into a dense per-LTS alphabet, and edges live in one flat
// CSR-style array indexed by per-state offsets — which is what lets the
// model checker precompute per-Büchi-state admit bitsets and walk the
// product with plain array indexing (see DESIGN.md).
package lts

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"effpi/internal/typelts"
	"effpi/internal/types"
)

// ErrStateBound is the sentinel wrapped by every state-bound-exceeded
// error, so callers can classify the failure with errors.Is regardless of
// which engine (serial, parallel, incremental) hit the bound.
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
	States []types.Type
	// Labels is the dense alphabet: one representative per distinct label
	// (by Key), in first-seen order. Edge.Label indexes into it.
	Labels []typelts.Label
	// edges is the flat CSR edge array; state s owns edges[start[s]:start[s+1]].
	edges []Edge
	start []int32
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
	// States[Initial] = RootPerm(init).
	RootPerm int32
	// edgePerms[k] is the permutation π of edge k: the raw successor u
	// of the edge's source representative satisfies dst = π(u). Aligned
	// with the LTS's flat edge array.
	edgePerms []int32
	// OrbitSizes[s] is |orbit(s)| (1 when the canonicaliser fell back to
	// the identity for lack of residence info). Aligned with States.
	OrbitSizes []int64
}

// EdgePerm returns the permutation recorded for the k-th outgoing edge
// of state s (the identity, 0, when the LTS was explored without
// symmetry).
func (l *LTS) EdgePerm(s, k int) int32 {
	if l.Sym == nil {
		return 0
	}
	return l.Sym.edgePerms[int(l.start[s])+k]
}

// Covered returns the number of concrete states the LTS represents: the
// state count itself for plain explorations, the sum of orbit sizes
// (saturating) for symmetric ones.
func (l *LTS) Covered() int64 {
	if l.Sym == nil {
		return int64(len(l.States))
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
	// Parallelism is the number of worker goroutines expanding the BFS
	// frontier (0 = GOMAXPROCS, 1 = the serial engine). Any value yields
	// the same LTS: state order, dense alphabet and the CSR edge arrays
	// are identical to the serial engine's (see DESIGN.md §parallel).
	Parallelism int
	// Progress, when non-nil, is called periodically during exploration —
	// after every BFS level in the parallel engine, every progressStride
	// expanded states in the serial one, and once at the end — with the
	// running state and edge counts. It is always called from the
	// exploration's merge (single-threaded) side, never concurrently.
	Progress func(p Progress)
	// Symmetry, when non-nil, canonicalises every registered state to
	// its orbit representative under the given channel-permutation group
	// (see DetectSymmetry), recording the applied permutation per edge
	// in LTS.Sym. As a safety gate it is honoured only for the
	// explorations its soundness argument covers — closed (no observable
	// set), witness-only, over the same interner the group was detected
	// with — and ignored otherwise. Canonicalisation runs on the
	// single-threaded registration side of every engine, so the parallel
	// determinism contract is preserved: the symmetric LTS is
	// byte-identical at any worker count.
	Symmetry *Symmetry
	// PartialOrder, when non-nil, enables exploration-time partial-order
	// reduction (see por.go): each expanded state registers an ample
	// subset of its enabled transitions instead of all of them, sound
	// for properties that only observe the labels PartialOrder.Visible
	// reports. Ample selection runs on the single-threaded registration
	// side of every engine, so the reduced LTS is byte-identical at any
	// worker count. The verifier's planner never sets both reductions;
	// as a safety gate, PartialOrder is ignored under Symmetry.
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

// progressStride is how many states the serial engine expands between
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
// States are represented as sorted multisets of hash-consed component
// IDs (the FlattenPar leaves), so a successor is multiset surgery —
// remove the acting components, splice in their cached replacements —
// followed by one interner lookup; no successor type tree is ever built
// or walked. Per-component steps and per-pair synchronisations come from
// the semantics' typelts.Cache. When sem carries a cache, it is reused
// (and extended), so repeated explorations of overlapping systems — the
// six Fig. 9 properties of one system, say — share their per-component
// work.
//
// With Options.Parallelism ≠ 1 the reachable set is computed by a
// level-synchronised parallel BFS: workers expand a frontier's states
// concurrently against the shared (concurrency-safe) cache, and a
// single-threaded merge then assigns state IDs and splices the CSR edge
// array in (parent-index, edge-order) order — so the resulting LTS is
// identical to the serial engine's at any worker count (see DESIGN.md).
func Explore(sem *typelts.Semantics, init types.Type, opts Options) (*LTS, error) {
	return ExploreContext(context.Background(), sem, init, opts)
}

// ExploreContext is Explore with cancellation: the exploration polls ctx
// between state expansions (serial) and BFS levels / worker batches
// (parallel), and returns an error wrapping ctx.Err() as soon as the
// context is cancelled or its deadline passes. A cancelled exploration
// leaves any shared typelts.Cache fully usable — the cache is an
// append-only memo, so a later identical exploration produces the
// identical LTS (it just starts warmer).
func ExploreContext(ctx context.Context, sem *typelts.Semantics, init types.Type, opts Options) (*LTS, error) {
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	b := prepBuilder(ctx, sem, init, opts)
	if par == 1 {
		return b.l, b.exploreSerial()
	}
	return b.l, b.exploreParallel(par)
}

// prepBuilder is the shared entry point of both exploration engines
// (Explore and NewIncremental): resolve the state bound, attach a private
// cache when the semantics has none (even a single exploration profits
// from hash-consed state identity, and the clone keeps the caller's value
// intact), and intern the root state. The root-intern sequence is
// determinism-critical — encounter-rank assignment starts here — so both
// engines must run it identically: a witness extracted from an
// Incremental only replays against Explore-style numbering because the
// two share this path.
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
		b.por = newPORState(por, b.sem)
		// Default proviso predicate: the serial and parallel engines
		// make ample decisions in state-number order, so a state is
		// decided iff its number precedes the current one. The
		// incremental engine overrides this with its own expansion map.
		b.porExpanded = func(s int32) bool { return s < b.porCur }
	}
	root := sem.InternLeaves(init)
	b.orderComps(root)
	if b.sym != nil {
		canon, perm := b.sym.canonicalise(root)
		b.l.Sym.RootPerm = perm
		if perm != 0 {
			// The canonical root is a different state; its representative
			// type is materialised from the interner.
			root = canon
			b.orderComps(root)
			init = nil
		}
	}
	b.internState(root, init)
	return b
}

// builder holds the mutable state of one exploration: the LTS under
// construction, the state index (interned multiset ID → state number),
// and the dense label index. It is single-threaded: the serial engine
// uses it directly, the parallel engine only from the merge goroutine.
type builder struct {
	sem      *typelts.Semantics
	in       *types.Interner
	l        *LTS
	index    map[types.ID]int32
	labelIdx map[typelts.LabelKey]int32
	// stateComps[s] is the component multiset of state s, sorted by
	// builder-local rank (see rankOf) — NOT by interner ID value, whose
	// assignment order is scheduler-dependent when workers intern fresh
	// successor types concurrently.
	stateComps [][]types.ID
	maxStates  int
	// rank maps a component ID to its dense per-exploration rank,
	// assigned in first-encounter order by the (single-threaded) builder.
	// Ordering multisets by rank makes iteration order — and therefore
	// proposal order, state numbering and the CSR arrays — independent
	// of the interner's ID assignment order, which is the keystone of
	// the parallel engine's determinism guarantee (see DESIGN.md).
	rank map[types.ID]int32
	// scratch is a reusable buffer for InternPar keys (InternPar sorts
	// its argument in place by ID value, which must not disturb the
	// rank-sorted stateComps entries); rankScratch buffers the ranks
	// during orderComps.
	scratch     []types.ID
	rankScratch []int32

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
	// driving engine (state-number order for the serial and parallel
	// engines, expansion order for the incremental one).
	por         *porState
	porCur      int32
	porExpanded func(int32) bool

	// Per-state edge dedup: linear scan while the out-degree is small,
	// switching to a map once it crosses dedupThreshold (high-out-degree
	// states would otherwise pay O(d²) rescans of l.edges[from:]).
	dedup       map[Edge]struct{}
	dedupActive bool
}

// dedupThreshold is the out-degree at which per-state edge dedup turns
// from a linear rescan into a map. Most states have a handful of edges
// (scan wins on constants); the high-fan-out states of the large rows
// have hundreds.
const dedupThreshold = 32

func newBuilder(sem *typelts.Semantics, maxStates int) *builder {
	return &builder{
		sem:       sem,
		in:        sem.Cache.Interner(),
		l:         &LTS{Initial: 0, start: make([]int32, 1, 64)},
		index:     make(map[types.ID]int32, 256),
		labelIdx:  make(map[typelts.LabelKey]int32, 16),
		maxStates: maxStates,
		rank:      make(map[types.ID]int32, 64),
	}
}

// rankOf returns the builder-local rank of a component ID, assigning
// the next dense rank on first encounter.
func (b *builder) rankOf(id types.ID) int32 {
	if r, ok := b.rank[id]; ok {
		return r
	}
	r := int32(len(b.rank))
	b.rank[id] = r
	return r
}

// orderComps assigns ranks to every ID (in slice order, so new
// components are ranked in deterministic encounter order) and sorts the
// slice by rank. Each rank is looked up once into a scratch slice and
// the two are co-sorted — multisets arrive mostly sorted (the kept
// parent components already are), so the insertion sort is near-linear
// and compares plain ints.
func (b *builder) orderComps(ids []types.ID) {
	rs := b.rankScratch[:0]
	for _, id := range ids {
		rs = append(rs, b.rankOf(id))
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && rs[j] < rs[j-1]; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	b.rankScratch = rs
}

// internState registers the state with the given rank-sorted component
// multiset, materialising a representative type for new states.
func (b *builder) internState(comps []types.ID, rep types.Type) int32 {
	// InternPar sorts by ID value in place; give it a scratch copy so
	// the rank order of comps survives.
	b.scratch = append(b.scratch[:0], comps...)
	sid := b.in.InternPar(b.scratch)
	if s, ok := b.index[sid]; ok {
		return s
	}
	s := int32(len(b.l.States))
	b.index[sid] = s
	if rep == nil {
		rep = b.in.TypeOf(sid)
	}
	b.l.States = append(b.l.States, rep)
	b.stateComps = append(b.stateComps, comps)
	if b.sym != nil {
		b.l.Sym.OrbitSizes = append(b.l.Sym.OrbitSizes, b.sym.orbitSize(comps))
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

// beginState resets the per-state edge dedup.
func (b *builder) beginState() { b.dedupActive = false }

// addEdge appends (lid → dst) unless the current state already has it.
// perm is the symmetry permutation recorded for the edge (0 = identity;
// always 0 without symmetry). When a duplicate (label, dst) pair is
// dropped, the first recorded permutation stands — any recorded
// permutation maps the canonical destination back to *a* raw successor
// of the source under that label, which is all the lift needs.
func (b *builder) addEdge(from int32, lid, dst, perm int32) {
	e := Edge{Label: lid, Dst: dst}
	if !b.dedupActive {
		seg := b.l.edges[from:]
		for _, x := range seg {
			if x == e {
				return
			}
		}
		b.appendEdge(e, perm)
		if len(seg)+1 >= dedupThreshold {
			b.dedupActive = true
			if b.dedup == nil {
				b.dedup = make(map[Edge]struct{}, 2*dedupThreshold)
			} else {
				clear(b.dedup)
			}
			for _, x := range b.l.edges[from:] {
				b.dedup[x] = struct{}{}
			}
		}
		return
	}
	if _, ok := b.dedup[e]; ok {
		return
	}
	b.dedup[e] = struct{}{}
	b.appendEdge(e, perm)
}

// appendEdge grows the flat edge array, keeping the per-edge
// permutation array aligned when symmetry is active.
func (b *builder) appendEdge(e Edge, perm int32) {
	b.l.edges = append(b.l.edges, e)
	if b.sym != nil {
		b.l.Sym.edgePerms = append(b.l.Sym.edgePerms, perm)
	}
}

// applyStep splices a successor multiset together (dropping the acting
// positions i and j) and registers the resulting edge.
func (b *builder) applyStep(from int32, comps []types.ID, i, j int, st typelts.CompStep) {
	b.register(from, spliceSucc(comps, i, j, st.Next), st.Key, st.Label)
}

// register is the shared successor-registration path of all three
// engines (serial loop, parallel merge, incremental expansion): order
// the multiset by builder rank, canonicalise it to its orbit
// representative when symmetry is active, intern state and label, and
// splice the edge — recording the canonicalisation permutation
// alongside. Everything order-sensitive (ranks, state numbers, label
// indices, permutation table indices) is assigned here, on the
// single-threaded side, which is what keeps the parallel engine
// byte-deterministic with symmetry on.
func (b *builder) register(from int32, succ []types.ID, key typelts.LabelKey, lab typelts.Label) {
	b.orderComps(succ)
	var perm int32
	if b.sym != nil {
		var canon []types.ID
		canon, perm = b.sym.canonicalise(succ)
		if perm != 0 {
			succ = canon
			b.orderComps(succ)
		}
	}
	dst := b.internState(succ, nil)
	lid := b.internLabel(key, lab)
	b.addEdge(from, lid, dst, perm)
}

// spliceSucc builds the successor multiset: comps without positions i
// and j, plus the acting components' replacements next.
func spliceSucc(comps []types.ID, i, j int, next []types.ID) []types.ID {
	succ := make([]types.ID, 0, len(comps)+len(next))
	for k, c := range comps {
		if k == i || k == j {
			continue
		}
		succ = append(succ, c)
	}
	return append(succ, next...)
}

// completeRun appends the run-completion self-loop of an edge-less state
// (✔^ω for proper termination, ⊠^ω for deadlock). from is the index of
// the state's first edge in the flat array; a state whose expansion
// produced no edges gets exactly one completion edge.
func (b *builder) completeRun(next int, from int32) {
	if len(b.l.edges) == int(from) {
		var lab typelts.Label = typelts.Stuck{}
		if len(b.stateComps[next]) == 0 {
			lab = typelts.Done{}
		}
		b.appendEdge(Edge{Label: b.internLabel(b.sem.Cache.LabelKeyOf(lab), lab), Dst: int32(next)}, 0)
	}
}

// finishState completes the run for edge-less states and seals the
// state's CSR extent.
func (b *builder) finishState(next int, from int32) {
	b.completeRun(next, from)
	b.l.start = append(b.l.start, int32(len(b.l.edges)))
}

// expandInto splices all transitions of the state with component multiset
// comps into the edge array, starting at offset from: interleaving moves
// of each component (Y-limited) first, then pairwise synchronisations —
// the canonical per-state edge order shared by the serial, parallel and
// incremental engines.
func (b *builder) expandInto(from int32, comps []types.ID) {
	if b.por != nil {
		// POR needs the whole proposal list (participants included)
		// before registering anything, so it can select an ample subset.
		b.registerPOR(from, comps, expandState(b.sem, comps))
		return
	}
	sem := b.sem
	// Interleaving: each component may act on its own (Y-limited).
	for i := range comps {
		for _, st := range sem.ComponentSteps(comps[i]) {
			if !sem.KeepLabel(st.Label) {
				continue
			}
			b.applyStep(from, comps, i, -1, st)
		}
	}
	// Synchronisation: an output of component i meets an input of
	// component j (i ≠ j); τ labels always survive the Y-limitation.
	for i := range comps {
		for j := range comps {
			if i == j {
				continue
			}
			for _, st := range sem.SyncSteps(comps[i], comps[j]) {
				b.applyStep(from, comps, i, j, st)
			}
		}
	}
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
	return fmt.Errorf("lts: exploration cancelled after %d states: %w", len(b.l.States), b.ctx.Err())
}

// report delivers a Progress snapshot (expanded = the number of states
// whose successors are spliced).
func (b *builder) report(expanded int) {
	if b.progress != nil {
		b.progress(Progress{States: len(b.l.States), Expanded: expanded, Edges: len(b.l.edges)})
	}
}

// exploreSerial is the single-threaded worklist engine (Parallelism 1):
// one pass over the growing state list, expanding and splicing in place.
func (b *builder) exploreSerial() error {
	for next := 0; next < len(b.l.States); next++ {
		if len(b.l.States) > b.maxStates {
			return b.boundExceeded()
		}
		if next%cancelStride == 0 && b.ctx.Err() != nil {
			return b.cancelled()
		}
		if next%progressStride == 0 && next > 0 {
			b.report(next)
		}
		from := b.l.start[next]
		b.beginState()
		b.porCur = int32(next)
		b.expandInto(from, b.stateComps[next])
		b.finishState(next, from)
	}
	b.report(len(b.l.States))
	return nil
}

// sealTruncated pads the offset array so Out stays in bounds for the
// states that were discovered but never processed.
func (l *LTS) sealTruncated() {
	for len(l.start) < len(l.States)+1 {
		l.start = append(l.start, int32(len(l.edges)))
	}
}

// FromAdjacency builds an LTS from an explicit adjacency list — states[i]
// has the outgoing edges adj[i]. It is meant for tests and hand-built
// models; Explore is the production constructor.
func FromAdjacency(states []types.Type, adj [][]AdjEdge, initial int) *LTS {
	l := &LTS{Initial: initial, start: make([]int32, 1, len(states)+1)}
	labelIdx := map[string]int32{}
	l.States = append(l.States, states...)
	for i := range states {
		for _, e := range adj[i] {
			key := e.Label.Key()
			lid, ok := labelIdx[key]
			if !ok {
				lid = int32(len(l.Labels))
				labelIdx[key] = lid
				l.Labels = append(l.Labels, e.Label)
			}
			l.edges = append(l.edges, Edge{Label: lid, Dst: int32(e.Dst)})
		}
		l.start = append(l.start, int32(len(l.edges)))
	}
	return l
}

// AdjEdge is one labelled edge of a FromAdjacency adjacency list.
type AdjEdge struct {
	Label typelts.Label
	Dst   int
}

// Len returns the number of states.
func (l *LTS) Len() int { return len(l.States) }

// Out returns the outgoing edges of state s (a view into the flat edge
// array; callers must not mutate it).
func (l *LTS) Out(s int) []Edge {
	if s+1 >= len(l.start) {
		return nil
	}
	// Three-index slice: the flat edge array is shared by every state, so
	// a caller append must reallocate instead of overwriting a
	// neighbouring state's edges.
	hi := l.start[s+1]
	return l.edges[l.start[s]:hi:hi]
}

// LabelOf resolves an edge's label index to the label itself.
func (l *LTS) LabelOf(e Edge) typelts.Label { return l.Labels[e.Label] }

// Alphabet returns one representative of every distinct label (by Key),
// sorted by key for determinism. This is the finite action set AΓ(T) of
// the paper (used by Def. 4.8 and Thm. 4.10).
func (l *LTS) Alphabet() []typelts.Label {
	out := make([]typelts.Label, len(l.Labels))
	copy(out, l.Labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// NumEdges returns the total number of transitions.
func (l *LTS) NumEdges() int { return len(l.edges) }

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
	for i := range l.States {
		fmt.Fprintf(&b, "  s%d [label=%q];\n", i, truncate(l.States[i].String(), 60))
	}
	for src := range l.States {
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
