package verify

// The verification engine. Every Verify and VerifyAll call is one batch:
// planBatch fixes, before any work starts, which explorations run and
// which reducer each one uses. The engine then runs in two phases on one
// bounded executor of width Parallelism: first every exploration (for an
// early-exit property the exploration is the whole verification), then
// the checks of the grouped properties on the LTSes the first phase has
// finished. No task ever waits for another while holding a slot, and
// width 1 is a plain loop in input order. Every exploration runs on the
// one shared transition cache.
//
// A deadline holds at every phase boundary: after each exploration,
// before each check and each on-the-fly search, before a FAIL is lifted
// and replayed, and after each check before its outcome is recorded, the
// batch fails with an error wrapping the context's error once the
// context is done or its deadline has passed.
// Exploration and the checker also poll the context as they run.

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"effpi/internal/lts"
	"effpi/internal/mucalc"
	"effpi/internal/typelts"
	"effpi/internal/types"
)

// Options configures a verification: the exploration bound, the three
// reducers, the transition cache, progress reporting and the executor
// width. Which exploration a reducer engages on is decided in one place,
// planBatch.
type Options struct {
	// MaxStates bounds each LTS exploration (0 = lts.DefaultMaxStates).
	MaxStates int
	// Symmetry selects exploration-time symmetry reduction (SymmetryMode).
	Symmetry SymmetryMode
	// PartialOrder selects exploration-time partial-order reduction
	// (PartialOrderMode).
	PartialOrder PartialOrderMode
	// EarlyExit selects on-the-fly checking: the property's formula is
	// compiled with no alphabet and the nested DFS drives an lts.Incremental
	// that materialises states only as the search reaches them, so a
	// violation found early leaves the rest of the state space
	// unexplored. Verdicts are identical to the full pipeline's; the
	// outcome's States counts only what was discovered, and its LTS is
	// the explored fragment (lts.LTS.Partial). On-the-fly exploration is
	// serial.
	EarlyExit bool
	// Cache, when non-nil, is the shared transition cache every
	// exploration runs on, letting a long-lived owner (the public
	// package's Workspace) reuse per-component work across whole
	// requests. It must have been built with typelts.NewCache(env, true)
	// for the same env that is verified. Nil means a fresh per-call cache.
	Cache *typelts.Cache
	// Progress, when non-nil, receives periodic exploration snapshots
	// from every exploration (lts.Options.Progress). At width ≥ 2
	// callbacks arrive from multiple goroutines; the callee must be safe
	// for that.
	Progress func(lts.Progress)
	// Parallelism is the width of the batch executor: how many
	// explorations and checks run at once (0 = GOMAXPROCS, 1 = one task
	// after another). Each exploration itself is serial. At any value the
	// verdicts, state counts and witnesses are identical; only wall-clock
	// changes.
	Parallelism int
}

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
	return VerifyAllWith(env, t, props, Options{MaxStates: maxStates})
}

// VerifyAllWith is VerifyAll with explicit options.
func VerifyAllWith(env *types.Env, t types.Type, props []Property, opts Options) ([]*Outcome, error) {
	return VerifyAllContext(context.Background(), env, t, props, opts)
}

// VerifyAllContext is VerifyAllWith with cancellation: ctx reaches every
// exploration and every model-checking stage, so the whole batch unwinds
// promptly — with an error wrapping ctx.Err() — once the context is
// done. Outcomes come back in input order. On error the result is the
// outcomes before the first failing property (in input order), plus that
// property's error, at every width.
func VerifyAllContext(ctx context.Context, env *types.Env, t types.Type, props []Property, opts Options) ([]*Outcome, error) {
	outs, err := verifyBatch(ctx, env, t, props, opts)
	if err != nil {
		return outs, fmt.Errorf("%s: %w", props[len(outs)], err)
	}
	return outs, nil
}

// verifyBatch plans and runs one batch. It returns the outcomes in input
// order up to the first failing property, and that property's error.
func verifyBatch(ctx context.Context, env *types.Env, t types.Type, props []Property, opts Options) ([]*Outcome, error) {
	outcomes := make([]*Outcome, 0, len(props))
	if len(props) == 0 {
		return outcomes, nil
	}
	// Fail once on an inadmissible type instead of running every
	// exploration into the same error.
	if err := Admissible(env, t); err != nil {
		return outcomes, err
	}
	b := planBatch(env, t, props, opts)

	// Phase 1: the explorations, in the order of the first property each
	// serves.
	var explore []task
	for _, x := range b.explorations {
		run := func() { b.explore(ctx, x) }
		if x.early {
			run = func() { b.verifyEarly(ctx, x) }
		}
		explore = append(explore, task{first: x.members[0], run: run})
	}
	b.run(explore)

	// Phase 2: the grouped properties' checks on their LTSes.
	var check []task
	for i, x := range b.of {
		if x != nil && !x.early {
			check = append(check, task{first: i, run: func() { b.check(ctx, i, x) }})
		}
	}
	b.run(check)

	for i := range props {
		if b.errs[i] != nil {
			return outcomes, b.errs[i]
		}
		outcomes = append(outcomes, b.results[i])
	}
	return outcomes, nil
}

// batch is one planned verification.
type batch struct {
	env    *types.Env
	t      types.Type
	props  []Property
	opts   Options
	width  int
	cache  *typelts.Cache
	pinned []string
	// explorations are ordered by their first property; of[i] is the one
	// serving property i (nil when its observables could not be computed).
	explorations []*exploration
	of           []*exploration

	results []*Outcome
	errs    []error
	// firstErr is the lowest property index with an error so far
	// (len(props) when none): tasks serving only later properties are
	// skipped, since their outcomes would be discarded.
	firstErr atomic.Int64
	mu       sync.Mutex
}

// exploration is one planned exploration: the observable-set group of
// its members, or a single early-exit property searched on the fly.
type exploration struct {
	obs     map[string]bool
	members []int // ascending property indexes
	early   bool
	// symmetric marks an orbit exploration. It detects its own
	// permutation group when it runs: an lts.Symmetry's memos are
	// unlocked, so no two explorations share one.
	symmetric bool
	por       *lts.POR
	lts       *lts.LTS
	err       error
	// took is the time of the exploration, symmetry detection included,
	// charged to the Duration of a sole member.
	took time.Duration
}

// The phase boundaries at which a batch checks its deadline.
const (
	afterExplore = "after exploration"
	beforeCheck  = "before check"
	beforeEarly  = "before on-the-fly search"
	beforeLift   = "before witness lift"
	afterCheck   = "after check"
)

// expiredAt, when set, names a boundary whose deadline check reports
// context.DeadlineExceeded as if the deadline had just passed. Only
// tests set it (export_test.go).
var expiredAt string

// deadline returns an error wrapping the context's error once ctx is
// done or its deadline has passed. Reading the clock, not only
// ctx.Err(), keeps the deadline when the runtime fires the context's
// timer late under load.
func deadline(ctx context.Context, at string) error {
	err := ctx.Err()
	if d, ok := ctx.Deadline(); err == nil && ok && !time.Now().Before(d) {
		err = context.DeadlineExceeded
	}
	if at == expiredAt {
		err = context.DeadlineExceeded
	}
	if err != nil {
		return fmt.Errorf("verify: stopped %s: %w", at, err)
	}
	return nil
}

// task is one unit of executor work; first is the lowest property index
// whose outcome depends on it.
type task struct {
	first int
	run   func()
}

// planBatch is the one place the reducer options are interpreted. It
// splits the batch into explorations and fixes each one's reducer:
//
//   - Under EarlyExit, a property whose formula compiles with no
//     alphabet (NonUsage, DeadlockFree, Reactive) is an exploration of
//     its own, searched on the fly. This is the only per-property
//     exploration.
//   - Every other property joins the group of its observable set, and
//     each group is explored once for all its members.
//   - An exploration runs on orbit representatives under Symmetry when it
//     is closed (empty observable set) and lts.DetectSymmetry finds a
//     group, pinning every channel any property of the batch observes.
//   - Otherwise it runs ample-reduced under PartialOrder when every member
//     has a porFilter. The visible labels are the union of the members'
//     (porFilterAll): a reduction that preserves every label in V ⊇ V_p
//     preserves each property p (Peled, "All from one, one for all").
//   - Otherwise it explores the full state space.
//
// Verdicts never depend on the plan; state counts, witnesses and the
// Outcome.PartialOrder flag do. ObservablesFor errors are recorded per
// property, so the input-order error contract holds.
func planBatch(env *types.Env, t types.Type, props []Property, opts Options) *batch {
	b := &batch{
		env: env, t: t, props: props, opts: opts,
		width:   opts.Parallelism,
		cache:   opts.Cache,
		pinned:  pinnedChannels(props),
		of:      make([]*exploration, len(props)),
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
	byKey := map[string]*exploration{}
	for i, p := range props {
		obs, err := ObservablesFor(env, p)
		if err != nil {
			b.fail(i, err)
			continue
		}
		// On the fly exactly when p's formula compiles with no alphabet.
		early := false
		if opts.EarlyExit {
			_, err := compile(env, nil, p)
			early = err == nil
		}
		sorted := append([]string{}, obs...)
		sort.Strings(sorted)
		key := strings.Join(sorted, ",")
		x := byKey[key]
		if x == nil || early {
			x = &exploration{obs: make(map[string]bool, len(obs)), early: early}
			for _, o := range obs {
				x.obs[o] = true
			}
			b.explorations = append(b.explorations, x)
			if !early {
				byKey[key] = x
			}
		}
		x.members = append(x.members, i)
		b.of[i] = x
	}

	// One detection decides for every closed exploration.
	closed := func(x *exploration) bool { return opts.Symmetry == SymmetryOn && len(x.obs) == 0 }
	symmetric := slices.ContainsFunc(b.explorations, closed) && lts.DetectSymmetry(b.cache, t, b.pinned) != nil
	for _, x := range b.explorations {
		if x.symmetric = symmetric && closed(x); !x.symmetric && opts.PartialOrder == PartialOrderOn {
			x.por = porFilterAll(env, props, x.members)
		}
	}
	return b
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

// semantics is the witness-only type semantics under the Y-limitation
// obs, on the batch cache. Each exploration and check gets its own: a
// Semantics carries goroutine-local memo state.
func (b *batch) semantics(obs map[string]bool) *typelts.Semantics {
	return &typelts.Semantics{Env: b.env, Observable: obs, WitnessOnly: true, Cache: b.cache}
}

// symmetry detects x's own permutation group, or returns nil when x is
// not an orbit exploration.
func (b *batch) symmetry(x *exploration) *lts.Symmetry {
	if !x.symmetric {
		return nil
	}
	return lts.DetectSymmetry(b.cache, b.t, b.pinned)
}

// request is property i's verification request under the batch options.
func (b *batch) request(i int) Request {
	return Request{Env: b.env, Type: b.t, Property: b.props[i], Options: b.opts}
}

// explore explores one group's shared LTS.
func (b *batch) explore(ctx context.Context, x *exploration) {
	start := time.Now()
	x.lts, x.err = lts.ExploreContext(ctx, b.semantics(x.obs), b.t, lts.Options{
		MaxStates: b.opts.MaxStates, Progress: b.opts.Progress,
		Symmetry: b.symmetry(x), PartialOrder: x.por,
	})
	if x.err == nil {
		x.err = deadline(ctx, afterExplore)
	}
	x.took = time.Since(start)
}

// verifyEarly verifies an early-exit exploration's one property.
func (b *batch) verifyEarly(ctx context.Context, x *exploration) {
	start := time.Now()
	i := x.members[0]
	if err := deadline(ctx, beforeEarly); err != nil {
		b.fail(i, err)
		return
	}
	o, err := verifyOnTheFly(ctx, b.request(i), b.semantics(x.obs), b.symmetry(x), x.por)
	if err != nil {
		b.fail(i, err)
		return
	}
	o.Duration = time.Since(start)
	b.results[i] = o
}

// check verifies grouped property i on its group's explored LTS: compile,
// model check, and for a FAIL decode, lift and replay the witness.
func (b *batch) check(ctx context.Context, i int, x *exploration) {
	if x.err != nil {
		b.fail(i, x.err)
		return
	}
	if err := deadline(ctx, beforeCheck); err != nil {
		b.fail(i, err)
		return
	}
	start := time.Now()
	req, m := b.request(i), x.lts
	out := &Outcome{
		Property:       req.Property,
		States:         int(m.Covered()),
		StatesExplored: m.Len(),
		LTS:            m,
		PartialOrder:   x.por != nil,
	}
	err := error(nil)
	if req.Property.Kind == EventualOutput {
		// Fig. 7(3), existential reachability (see EvUsageHolds).
		out.Holds = EvUsageHolds(NewUses(b.env, m), m, req.Property.Channels)
	} else if out.Formula, err = Compile(b.env, m, req.Property); err == nil {
		var res mucalc.Result
		if res, err = mucalc.CheckContext(ctx, m, out.Formula); err == nil {
			out.Holds, out.ProductStates, out.AutomatonStates = res.Holds, res.ProductStates, res.AutomatonStates
			out.Counterexample, out.Witness = res.Counterexample, DecodeWitness(m, res.Witness)
			err = finishFail(ctx, req, b.semantics(x.obs), m, out)
		}
	}
	if err == nil {
		err = deadline(ctx, afterCheck)
	}
	if err != nil {
		b.fail(i, err)
		return
	}
	out.Duration = time.Since(start)
	if len(x.members) == 1 {
		out.Duration += x.took
	}
	b.results[i] = out
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
