package verify

// The batch engine behind VerifyAll. Every property of a batch takes one
// of two routes, fixed before any work starts (planBatch):
//
//   - shared: the property is checked on the LTS of its observable-set
//     group, explored once for every shared-route property with the same
//     Y-limitation;
//   - own: the property explores its own reduced space — on the fly
//     under EarlyExit, or ample-reduced under PartialOrder — because that
//     space depends on the property itself.
//
// The engine runs in two phases on one bounded executor of width
// Parallelism: first the group explorations and the own-route
// properties, then the shared-route checks, whose LTSes the first phase
// has finished. No task ever waits for another while holding a slot,
// and width 1 is a plain loop in input order. Every exploration runs on
// the one shared transition cache.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"effpi/internal/lts"
	"effpi/internal/typelts"
	"effpi/internal/types"
)

// VerifyAll verifies a batch of properties of one system (typically the
// six of a Fig. 9 row), reusing one explored LTS across properties that
// share the same observable *set* (the key is order-insensitive), and
// sharing one transition cache — interner, memoised per-state steps,
// synchronisation matches — across every exploration, so properties with
// different Y-limitations still reuse each other's per-state work.
//
// VerifyAll runs at the default parallelism (GOMAXPROCS); see
// VerifyAllWith for the knobs.
func VerifyAll(env *types.Env, t types.Type, props []Property, maxStates int) ([]*Outcome, error) {
	return VerifyAllWith(env, t, props, AllOptions{MaxStates: maxStates})
}

// AllOptions configures VerifyAllWith.
type AllOptions struct {
	// MaxStates bounds each LTS exploration (0 = lts.DefaultMaxStates).
	MaxStates int
	// Symmetry selects exploration-time symmetry reduction for every
	// property of the batch (see Request.Symmetry). The orbit exploration
	// of the closed group is shared, pinning the union of every
	// property's channels, so one exploration is sound for all of them.
	Symmetry SymmetryMode
	// PartialOrder selects exploration-time partial-order reduction for
	// every property of the batch (see Request.PartialOrder). The
	// visible-label set is per property, so an eligible property takes
	// the own route: it explores its own ample-reduced LTS. When symmetry
	// is also on and a group is detected for the closed properties,
	// symmetry wins and those properties take the shared route.
	PartialOrder PartialOrderMode
	// EarlyExit selects on-the-fly checking for every property of the
	// batch (see Request.EarlyExit). A property whose schema compiles
	// symbolically takes the own route, so a partial fragment never
	// serves another property; the others fall back to the full pipeline
	// and take the shared route.
	EarlyExit bool
	// Cache, when non-nil, is the shared transition cache every
	// exploration runs on, letting a long-lived owner (the public
	// package's Workspace) reuse per-component work across whole
	// requests. It must have been built with typelts.NewCache(env, true)
	// for the same env passed to VerifyAllContext. Nil means a fresh
	// per-call cache.
	Cache *typelts.Cache
	// Progress, when non-nil, receives periodic exploration snapshots
	// from every exploration of the batch (lts.Options.Progress). At
	// width ≥ 2 callbacks arrive from multiple goroutines; the callee
	// must be safe for that.
	Progress func(lts.Progress)
	// Parallelism is the width of the batch executor and the BFS worker
	// count of each exploration: 0 = GOMAXPROCS, 1 = one task after
	// another and serial explorations. At any value the verdicts, state
	// counts and witnesses are identical; only wall-clock changes.
	Parallelism int
}

// VerifyAllWith is VerifyAll with explicit options.
func VerifyAllWith(env *types.Env, t types.Type, props []Property, opts AllOptions) ([]*Outcome, error) {
	return VerifyAllContext(context.Background(), env, t, props, opts)
}

// VerifyAllContext is VerifyAllWith with cancellation: ctx reaches every
// exploration and every model-checking stage, so the whole batch unwinds
// promptly — with an error wrapping ctx.Err() — once the context is
// done. Outcomes come back in input order. On error the result is the
// outcomes before the first failing property (in input order), plus that
// property's error, at every width.
func VerifyAllContext(ctx context.Context, env *types.Env, t types.Type, props []Property, opts AllOptions) ([]*Outcome, error) {
	outcomes := make([]*Outcome, 0, len(props))
	if len(props) == 0 {
		return outcomes, nil
	}
	// Fail once on an inadmissible type instead of running every
	// exploration into the same error.
	if err := Admissible(env, t); err != nil {
		return outcomes, fmt.Errorf("%s: %w", props[0], err)
	}
	b := planBatch(env, t, props, opts)

	// Phase 1: group explorations and own-route properties, in the order
	// of the first property each serves.
	var explore []task
	for i := range props {
		switch {
		case b.errs[i] != nil:
		case b.own[i]:
			explore = append(explore, task{first: i, run: func() { b.verify(ctx, i, nil) }})
		case b.groupOf[i].first == i:
			g := b.groupOf[i]
			explore = append(explore, task{first: i, run: func() { b.exploreGroup(ctx, g) }})
		}
	}
	b.run(explore)

	// Phase 2: shared-route checks on the group LTSes.
	var check []task
	for i := range props {
		if !b.own[i] && b.errs[i] == nil {
			check = append(check, task{first: i, run: func() {
				g := b.groupOf[i]
				if g.err != nil {
					b.fail(i, g.err)
					return
				}
				b.verify(ctx, i, g.lts)
			}})
		}
	}
	b.run(check)

	for i, p := range props {
		if b.errs[i] != nil {
			return outcomes, fmt.Errorf("%s: %w", p, b.errs[i])
		}
		outcomes = append(outcomes, b.results[i])
	}
	return outcomes, nil
}

// batch is one planned VerifyAll call.
type batch struct {
	env    *types.Env
	t      types.Type
	props  []Property
	opts   AllOptions
	width  int
	cache  *typelts.Cache
	pinned []string
	// own marks the own-route properties; the others check on
	// groupOf[i].lts.
	own     []bool
	groupOf []*group
	// sym is the symmetry group of the closed exploration, detected at
	// most once (symDetected): while routing, or by the closed group's
	// exploration, which never runs concurrently with routing.
	sym         *lts.Symmetry
	symDetected bool

	results []*Outcome
	errs    []error
	// firstErr is the lowest property index with an error so far
	// (len(props) when none): tasks serving only later properties are
	// skipped, since their outcomes would be discarded.
	firstErr atomic.Int64
	mu       sync.Mutex
}

// group is one observable-set group of shared-route properties.
type group struct {
	obs   map[string]bool
	first int // lowest property index served
	lts   *lts.LTS
	err   error
}

// task is one unit of executor work; first is the lowest property index
// whose outcome depends on it.
type task struct {
	first int
	run   func()
}

// planBatch fixes every property's route and groups the shared-route
// properties by observable set. ObservablesFor errors are recorded per
// property, so the input-order error contract holds.
func planBatch(env *types.Env, t types.Type, props []Property, opts AllOptions) *batch {
	b := &batch{
		env: env, t: t, props: props, opts: opts,
		width:   opts.Parallelism,
		cache:   opts.Cache,
		pinned:  batchPinnedChannels(props),
		own:     make([]bool, len(props)),
		groupOf: make([]*group, len(props)),
		results: make([]*Outcome, len(props)),
		errs:    make([]error, len(props)),
	}
	if b.width <= 0 {
		b.width = runtime.GOMAXPROCS(0)
	}
	if b.cache == nil {
		b.cache = typelts.NewCache(env, true)
	}
	b.firstErr.Store(int64(len(props)))
	byKey := map[string]*group{}
	for i, p := range props {
		obs, err := ObservablesFor(env, p)
		if err != nil {
			b.fail(i, err)
			continue
		}
		if b.ownRoute(p, len(obs) == 0) {
			b.own[i] = true
			continue
		}
		sorted := append([]string{}, obs...)
		sort.Strings(sorted)
		key := strings.Join(sorted, ",")
		g, ok := byKey[key]
		if !ok {
			g = &group{obs: make(map[string]bool, len(obs)), first: i}
			for _, x := range obs {
				g.obs[x] = true
			}
			byKey[key] = g
		}
		b.groupOf[i] = g
	}
	return b
}

// ownRoute decides whether a property explores on its own. Only the
// schemas with alphabet-independent action-set semantics (porEligible)
// can: under EarlyExit they always do, under PartialOrder unless
// symmetry claims the closed exploration — a detected group wins, since
// the orbit construction must see every concrete successor. Detection
// runs at most once, with the pinned set the closed group's exploration
// uses, so the routing and the exploration agree.
func (b *batch) ownRoute(p Property, closed bool) bool {
	if !porEligible(p.Kind) {
		return false
	}
	if b.opts.EarlyExit {
		return true
	}
	if b.opts.PartialOrder != PartialOrderOn {
		return false
	}
	return !(closed && b.closedSymmetry() != nil)
}

// closedSymmetry detects (once) the symmetry group the closed
// exploration runs under, or nil when symmetry is off or none exists.
func (b *batch) closedSymmetry() *lts.Symmetry {
	if b.opts.Symmetry != SymmetryOn {
		return nil
	}
	if !b.symDetected {
		b.symDetected = true
		b.sym = lts.DetectSymmetry(b.cache, b.t, b.pinned)
	}
	return b.sym
}

// run executes tasks on at most width goroutines; width 1 is a plain
// loop. Tasks serving only properties after the first error are skipped.
func (b *batch) run(tasks []task) {
	do := func(tk task) {
		if int64(tk.first) <= b.firstErr.Load() {
			tk.run()
		}
	}
	if b.width <= 1 || len(tasks) <= 1 {
		for _, tk := range tasks {
			do(tk)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(b.width, len(tasks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(tasks); k = int(next.Add(1)) - 1 {
				do(tasks[k])
			}
		}()
	}
	wg.Wait()
}

// exploreGroup explores one group's shared LTS. Only the closed group
// (empty observable set) can run under symmetry, so the single-
// exploration discipline of lts.Symmetry holds.
func (b *batch) exploreGroup(ctx context.Context, g *group) {
	var sym *lts.Symmetry
	if len(g.obs) == 0 {
		sym = b.closedSymmetry()
	}
	sem := &typelts.Semantics{Env: b.env, Observable: g.obs, WitnessOnly: true, Cache: b.cache}
	g.lts, g.err = lts.ExploreContext(ctx, sem, b.t, lts.Options{
		MaxStates: b.opts.MaxStates, Parallelism: b.width, Progress: b.opts.Progress, Symmetry: sym,
	})
}

// verify runs property i through VerifyContext: on reuse, the group's
// LTS (shared route), or nil for its own exploration.
func (b *batch) verify(ctx context.Context, i int, reuse *lts.LTS) {
	req := Request{
		Env: b.env, Type: b.t, Property: b.props[i],
		MaxStates: b.opts.MaxStates, Reuse: reuse, Cache: b.cache, Parallelism: b.width,
		Symmetry: b.opts.Symmetry, symPinned: b.pinned,
	}
	if reuse == nil {
		req.PartialOrder, req.EarlyExit, req.Progress = b.opts.PartialOrder, b.opts.EarlyExit, b.opts.Progress
	}
	o, err := VerifyContext(ctx, req)
	if err != nil {
		b.fail(i, err)
		return
	}
	b.results[i] = o
}

// fail records property i's error and lowers firstErr.
func (b *batch) fail(i int, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.errs[i] = err
	if int64(i) < b.firstErr.Load() {
		b.firstErr.Store(int64(i))
	}
}
