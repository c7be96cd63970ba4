package lts

// This file implements the parallel exploration engine: a
// level-synchronised BFS over the type LTS.
//
// The serial engine (builder.exploreSerial) interleaves two very
// different kinds of work: *expansion* — computing a state's component
// steps and synchronisations, which bottoms out in subtype checks,
// µ-unfolding and substitution — and *registration* — interning the
// successor multisets, assigning state numbers and splicing the CSR edge
// array. Expansion dominates and is embarrassingly parallel once the
// transition cache is concurrency-safe; registration is cheap but order-
// sensitive, because state numbers and the dense label alphabet are
// assigned first-seen.
//
// So the parallel engine splits them. Each BFS level (the states
// discovered by the previous level's merge) is expanded by Parallelism
// workers, each holding a Fork of the semantics and sharing its
// lock-striped cache; a worker turns one state into an ordered list of
// edge proposals — successor multiset, label and compact label key —
// without touching the LTS under construction. A single-threaded merge
// then replays the proposals in (parent-index, edge-order) order through
// exactly the same builder methods the serial engine uses, so state
// numbering, alphabet order, edge order and truncation behaviour are
// identical to the serial engine's at any worker count. See DESIGN.md
// for the determinism argument.

import (
	"sync"
	"sync/atomic"

	"effpi/internal/typelts"
	"effpi/internal/types"
)

// proposal is one candidate edge of a state (expandState): the
// successor component multiset (before interning) plus the transition
// label and its compact identity. builder.expand turns proposals into
// states and CSR edges.
type proposal struct {
	succ []types.ID
	key  typelts.LabelKey
	lab  typelts.Label
	// i and j are the acting positions in the parent's component
	// multiset (j is -1 for an interleaving step). The ample-set
	// computation of partial-order reduction derives its independence
	// relation from them; plain registration ignores them.
	i, j int32
}

// minParallelFrontier is the frontier size below which a level is
// expanded inline on the merge goroutine: spawning workers for a
// handful of states costs more than it saves.
const minParallelFrontier = 4

// exploreParallel runs the level-synchronised BFS with par workers.
// The worker Semantics forks are created once and reused across levels
// — the levels are separated by a join, so no fork is ever used by two
// goroutines at once, and reuse keeps each worker's L1 memo hot for the
// whole exploration instead of one level.
func (b *builder) exploreParallel(par int) error {
	forks := make([]*typelts.Semantics, par)
	for i := range forks {
		forks[i] = b.sem.Fork()
	}
	for done := 0; done < len(b.l.States); {
		lo, hi := done, len(b.l.States)
		n := hi - lo

		if b.ctx.Err() != nil {
			return b.cancelled()
		}

		// Expand the level. If the bound is already exceeded the merge
		// will fail at state lo, so skip the (possibly huge) expansion.
		var props [][]proposal
		if hi <= b.maxStates {
			props = b.expandLevel(lo, n, forks)
			// Workers bail early on cancellation, leaving nil proposal
			// slots; the merge must not mistake those for edge-less states.
			if b.ctx.Err() != nil {
				return b.cancelled()
			}
		} else {
			props = make([][]proposal, n)
		}

		// Merge in deterministic (parent-index, edge-order) order,
		// mirroring the serial loop state by state.
		for i := 0; i < n; i++ {
			next := lo + i
			if len(b.l.States) > b.maxStates {
				return b.boundExceeded()
			}
			from := b.l.start[next]
			b.beginState()
			// Registration — and the ample selection under POR — runs
			// here, on the single-threaded merge side, in deterministic
			// (parent, edge-order) order, through the same expand the
			// serial engine runs, so the LTS is byte-identical at any
			// worker count.
			b.porCur = int32(next)
			b.expand(from, b.stateComps[next], props[i])
			b.finishState(next, from)
			props[i] = nil
		}
		done = hi
		b.report(done)
	}
	return nil
}

// expandLevel computes the proposals of states [lo, lo+n) — concurrently
// when the frontier is large enough to amortise the goroutine handoff,
// inline otherwise (on forks[0], so the warm L1 memo is still used).
func (b *builder) expandLevel(lo, n int, forks []*typelts.Semantics) [][]proposal {
	props := make([][]proposal, n)
	workers := len(forks)
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < minParallelFrontier {
		for i := 0; i < n; i++ {
			if i%cancelStride == 0 && b.ctx.Err() != nil {
				return props
			}
			props[i] = expandState(forks[0], b.stateComps[lo+i], nil)
		}
		return props
	}

	done := b.ctx.Done()
	var idx atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		ws := forks[w]
		go func() {
			defer wg.Done()
			for {
				i := int(idx.Add(1)) - 1
				if i >= n {
					return
				}
				if done != nil {
					select {
					case <-done:
						// Cancelled mid-level: stop expanding. The merge
						// re-checks ctx before consuming the (partial)
						// proposals.
						return
					default:
					}
				}
				props[i] = expandState(ws, b.stateComps[lo+i], nil)
			}
		}()
	}
	wg.Wait()
	return props
}

// expandState appends the edge proposals of one state to out, in the
// canonical per-state edge order: interleaving steps of each component
// (Y-limited), then pairwise synchronisations — an output of component
// i meeting an input of component j ≠ i (τ labels always survive the
// Y-limitation). The pairs are visited in ascending (i, j) order, but
// only those whose port summaries can meet (syncSteps) cost a SyncSteps
// lookup: the component entries the interleaving loop fetches carry the
// summaries, and the filter never drops a pair with a step, so the
// proposal list is exactly the one of an unfiltered k(k−1) sweep.
func expandState(sem *typelts.Semantics, comps []types.ID, out []proposal) []proposal {
	var buf [32]*typelts.Component // on the stack for up to 32 components
	entries := buf[:0]
	for i := range comps {
		c := sem.Component(comps[i])
		entries = append(entries, c)
		for _, st := range c.Steps {
			if !sem.KeepLabel(st.Label) {
				continue
			}
			out = append(out, proposal{succ: spliceSucc(comps, i, -1, st.Next), key: st.Key, lab: st.Label, i: int32(i), j: -1})
		}
	}
	for i, ci := range entries {
		if !ci.Ports.HasOut {
			continue
		}
		for j, cj := range entries {
			if i == j {
				continue
			}
			for _, st := range syncSteps(sem, ci, cj) {
				out = append(out, proposal{succ: spliceSucc(comps, i, j, st.Next), key: st.Key, lab: st.Label, i: int32(i), j: int32(j)})
			}
		}
	}
	return out
}

// syncSteps returns the synchronisations of an output of component x
// with an input of component y. It is the one "may synchronise" test of
// exploration and partial-order reduction: a pair whose port summaries
// cannot meet (typelts.MaySync) has no step and skips the memo lookup.
func syncSteps(sem *typelts.Semantics, x, y *typelts.Component) []typelts.CompStep {
	if !typelts.MaySync(&x.Ports, &y.Ports) {
		return nil
	}
	return sem.SyncSteps(x.ID, y.ID)
}
