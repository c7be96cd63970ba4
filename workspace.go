package effpi

import (
	"sync"

	"effpi/internal/typelts"
	"effpi/internal/types"
)

// DefaultCacheBudget is the default Workspace memo budget: the total
// number of cache entries (interned types + memoised steps, matches and
// synchronisations, summed over all environments) retained between
// requests before least-recently-used caches are evicted. Explored
// states are not entries: each exploration keeps its states in its own
// table, freed with its LTS, so the budget grows with the components a
// workload meets, not with its state space. A Fig. 9 system settles at
// about 600 entries on average, so the default keeps well over a
// thousand distinct workloads warm while bounding a long-lived process
// to tens of megabytes of memo state.
const DefaultCacheBudget = 1 << 20

// Workspace owns the verification state that outlives a single request:
// one transition cache (interner + memoised type semantics) per distinct
// typing environment, shared by every Session created from it. A
// long-lived service keeps one Workspace for its whole life; repeated
// requests against the same environment then skip re-deriving component
// steps, synchronisations, µ-unfoldings and type identities.
//
// A Workspace is safe for concurrent use: many sessions may verify over
// the same cache at once (the cache guards its memos with a mutex and
// its entries are schedule-independent, so results are identical to
// serial runs).
//
// Growth is bounded: after every request the workspace sums its caches'
// memo entries and evicts whole caches in least-recently-used order
// until the total fits CacheBudget again. Sessions hold direct
// references to their cache, so eviction never disturbs in-flight work —
// an evicted cache simply stops being handed to new sessions.
type Workspace struct {
	mu      sync.Mutex
	budget  int // <0 = unlimited
	entries map[string]*wsEntry
	tick    uint64
	evicted uint64
}

// wsEntry is one environment's retained cache. env is the canonical
// environment: the first *types.Env seen with this key, which every
// later session with an equivalent environment adopts — the cache's
// compatibility check is pointer identity, so sharing requires one
// canonical pointer per key.
type wsEntry struct {
	env   *types.Env
	cache *typelts.Cache
	last  uint64
}

// WorkspaceOption configures NewWorkspace.
type WorkspaceOption func(*Workspace)

// WithCacheBudget bounds the total memo entries retained across requests
// (see DefaultCacheBudget); explored states do not count. 0 keeps the
// default; negative disables eviction entirely.
func WithCacheBudget(entries int) WorkspaceOption {
	return func(w *Workspace) {
		if entries != 0 {
			w.budget = entries
		}
	}
}

// NewWorkspace returns an empty workspace.
func NewWorkspace(opts ...WorkspaceOption) *Workspace {
	w := &Workspace{budget: DefaultCacheBudget, entries: map[string]*wsEntry{}}
	for _, o := range opts {
		o(w)
	}
	return w
}

// adopt returns the canonical environment and shared cache for env,
// creating them on first sight. Two environments with equal canonical
// keys (same bindings up to type equivalence and entry order) share one
// entry; the caller must use the returned *Env from here on.
func (w *Workspace) adopt(env *types.Env) (*types.Env, *typelts.Cache) {
	key := env.Key()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.tick++
	if e, ok := w.entries[key]; ok {
		e.last = w.tick
		return e.env, e.cache
	}
	e := &wsEntry{env: env, cache: typelts.NewCache(env, true), last: w.tick}
	w.entries[key] = e
	return e.env, e.cache
}

// sweep enforces the budget: while the summed memo count exceeds it,
// the least-recently-used cache is dropped (even the last one — a single
// oversized cache must not pin unbounded memory; it is rebuilt warm-ish
// on the next request). Called by sessions after each request. Summing
// takes each cache's lock once, under the workspace mutex.
func (w *Workspace) sweep() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.budget < 0 {
		return
	}
	total := 0
	sizes := make(map[string]int, len(w.entries))
	for k, e := range w.entries {
		sizes[k] = e.cache.Memos()
		total += sizes[k]
	}
	for total > w.budget && len(w.entries) > 0 {
		var lruKey string
		var lru *wsEntry
		for k, e := range w.entries {
			if lru == nil || e.last < lru.last {
				lruKey, lru = k, e
			}
		}
		total -= sizes[lruKey]
		delete(w.entries, lruKey)
		w.evicted++
	}
}

// CacheStats is a point-in-time snapshot of the workspace's retained
// state, for monitoring (effpid exposes it under /metrics).
type CacheStats struct {
	// Caches is the number of retained per-environment caches.
	Caches int
	// Memos is the summed memo-entry count across them.
	Memos int
	// Evictions counts caches dropped by the budget sweep so far.
	Evictions uint64
	// Budget is the configured memo budget (<0 = unlimited).
	Budget int
}

// CacheStats reports the workspace's current retained state.
func (w *Workspace) CacheStats() CacheStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := CacheStats{Caches: len(w.entries), Evictions: w.evicted, Budget: w.budget}
	for _, e := range w.entries {
		st.Memos += e.cache.Memos()
	}
	return st
}
