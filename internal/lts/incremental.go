package lts

// This file implements the on-demand exploration engine behind on-the-fly
// model checking (the early-exit mode of verify.Request): instead of
// materialising the whole reachable state space up front, an Incremental
// expands a state's successors the first time the checker asks for them.
// The nested DFS of mucalc.CheckModelContext stops at the first accepting lasso,
// so on a failing property the unexplored remainder of the state space is
// never built — the measurable win the early-exit acceptance tests assert
// on the philosophers systems.
//
// Each state's expansion runs through exactly the same builder machinery
// as Explore (expand, completeRun), so the
// edges of any given state — and hence the witness the checker extracts —
// are identical to what the full exploration would produce for that
// state. Only the *numbering* of states can differ from Explore's
// BFS numbering, because discovery order follows the DFS: state IDs in an
// Incremental are meaningful only relative to itself and its Snapshot.

import (
	"context"

	"effpi/internal/typelts"
	"effpi/internal/types"
)

// Incremental is an on-demand LTS explorer. It satisfies mucalc.Model:
// Succ materialises a state's successors on first request. Not safe for
// concurrent use — on-the-fly checking is inherently DFS-driven and
// serial.
type Incremental struct {
	b *builder
	// runs holds every discovered state's edge run, {-1, -1} while the
	// state is not expanded. A state's edges are contiguous because an
	// expansion appends them all, as one run, before returning.
	runs     chunked[extent]
	expanded int
	err      error
}

// extent is the bounds of one state's edge run, for chunked.view.
type extent struct{ lo, hi int32 }

// NewIncremental prepares on-demand exploration of init under the given
// semantics. MaxStates bounds the number of *discovered* states exactly as
// in Explore — once exceeded, every further expansion fails with the
// state-bound error.
func NewIncremental(sem *typelts.Semantics, init types.Type, opts Options) *Incremental {
	return NewIncrementalContext(context.Background(), sem, init, opts)
}

// NewIncrementalContext is NewIncremental with cancellation: every Succ
// expansion polls ctx first, and a cancelled context makes the expansion
// (and every later one) fail with an error wrapping ctx.Err() — which
// aborts the driving nested DFS. Already-expanded states keep serving
// their cached edges, so the explored fragment stays internally
// consistent.
func NewIncrementalContext(ctx context.Context, sem *typelts.Semantics, init types.Type, opts Options) *Incremental {
	x := &Incremental{b: prepBuilder(ctx, sem, init, opts)}
	x.grow()
	if x.b.por != nil {
		// The incremental engine expands states in checker-driven DFS
		// order, not state-number order, so the cycle proviso's
		// "already decided" predicate is the expansion map itself.
		x.b.porExpanded = func(s int32) bool {
			_, ok := x.expansion(int(s))
			return ok
		}
	}
	return x
}

// expansion returns the edge run of state s, and whether s was
// expanded.
func (x *Incremental) expansion(s int) (extent, bool) {
	if s >= x.runs.n {
		return extent{}, false
	}
	r := x.runs.at(s)
	return r, r.lo >= 0
}

// Initial is the initial state index (always 0).
func (x *Incremental) Initial() int { return x.b.l.Initial }

// Labels is the dense label alphabet discovered so far; indices are
// stable, the slice only grows.
func (x *Incremental) Labels() []typelts.Label { return x.b.l.Labels }

// Len is the number of states discovered so far (expanded states plus
// registered-but-unexpanded successors).
func (x *Incremental) Len() int { return x.b.l.Len() }

// Expanded is the number of states whose successors were materialised.
func (x *Incremental) Expanded() int { return x.expanded }

// Err returns the sticky exploration error (state bound exceeded), if any.
func (x *Incremental) Err() error { return x.err }

// StateType builds the type of a discovered state (see LTS.StateType).
func (x *Incremental) StateType(s int) types.Type { return x.b.l.StateType(s) }

// StateComps returns the rank-sorted component multiset of a discovered
// state (see LTS.StateComps), decoded afresh; the caller owns the slice.
func (x *Incremental) StateComps(s int) []types.ID { return x.b.l.StateComps(s) }

// Succ returns the outgoing edges of state s, expanding it on first
// request. Expansion registers s's successor states (growing Len) and
// completes the run of edge-less states with ✔/⊠ exactly like Explore.
// Once the state bound is exceeded the error is sticky: the fragment
// explored so far is no longer extended.
func (x *Incremental) Succ(s int) ([]Edge, error) {
	if r, ok := x.expansion(s); ok {
		return x.b.l.edges.view(int(r.lo), int(r.hi)), nil
	}
	if x.err != nil {
		return nil, x.err
	}
	if x.b.ctx.Err() != nil {
		x.err = x.b.cancelled()
		return nil, x.err
	}
	x.grow()
	if x.b.l.Len() > x.b.maxStates {
		x.err = x.b.boundExceeded()
		return nil, x.err
	}
	lo := x.b.expand(s)
	x.grow() // expansion may have discovered new states
	hi := x.b.l.edges.pos
	x.runs.set(s, extent{int32(lo), int32(hi)})
	x.expanded++
	if x.expanded%progressStride == 0 {
		x.b.report(x.expanded)
	}
	return x.b.l.edges.view(lo, hi), nil
}

// grow gives newly discovered states an unexpanded edge run.
func (x *Incremental) grow() {
	for x.runs.n < x.b.l.Len() {
		x.runs.add(extent{-1, -1})
	}
}

// Snapshot assembles the explored fragment into an LTS: expanded states
// keep their edges (in the engine's canonical per-state order),
// unexpanded states have none. The result is marked Partial unless every
// discovered state was expanded, and Truncated if the state bound was
// hit. Witness runs extracted by the checker only visit expanded states,
// so they validate against the snapshot. The snapshot shares the
// explorer's key store and rank decoding (later expansions only append
// to them, and a widening rewrites the keys into a new store) and copies
// the edges into state order.
func (x *Incremental) Snapshot() *LTS {
	src := x.b.l
	n := src.Len()
	l := &LTS{
		Initial:   src.Initial,
		Truncated: src.Truncated,
		keys:      src.keys.frozen(),
		wlog:      src.wlog,
		comp:      src.comp,
		first:     src.first,
		in:        src.in,
		root:      src.root,
		Labels:    append([]typelts.Label{}, src.Labels...),
	}
	var sym *SymInfo
	if src.Sym != nil {
		sym = &SymInfo{
			S:          src.Sym.S,
			RootPerm:   src.Sym.RootPerm,
			OrbitSizes: append([]int64{}, src.Sym.OrbitSizes...),
		}
		l.Sym = sym
	}
	for s := 0; s < n; s++ {
		r, ok := x.expansion(s)
		if !ok {
			l.start.add(int32(l.edges.pos))
			continue
		}
		edges := src.edges.view(int(r.lo), int(r.hi))
		l.edges.reserve(len(edges))
		l.start.add(int32(l.edges.pos))
		l.edges.pushAll(edges)
		if sym != nil {
			sym.edgePerms.reserve(len(edges))
			sym.edgePerms.pushAll(src.Sym.edgePerms.view(int(r.lo), int(r.hi)))
		}
	}
	l.Partial = x.expanded < n
	return l
}
