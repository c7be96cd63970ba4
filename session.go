package effpi

import (
	"context"
	"fmt"
	"sync"

	"effpi/internal/core"
	"effpi/internal/lts"
	"effpi/internal/reduce"
	"effpi/internal/syntax"
	"effpi/internal/typelts"
	"effpi/internal/types"
	"effpi/internal/verify"
)

// Session is one verification workload bound to a Workspace: a program
// (from source) or a bare type (from AST), the typing environment it
// lives in, and the session's configuration. Sessions are cheap — create
// one per request — while the expensive state (the transition cache)
// lives in the Workspace and is shared across sessions keyed by
// environment.
//
// A Session is safe for concurrent method calls, but the intended shape
// is one session per request with concurrency across sessions.
type Session struct {
	ws     *Workspace
	prog   *core.Program // nil for type-only sessions
	env    *types.Env    // canonical (workspace-adopted)
	typ    types.Type    // inferred (source sessions, after Check) or given
	opt    sessionOptions
	emitMu sync.Mutex
	typMu  sync.Mutex
	cache  *typelts.Cache
}

// NewSession parses source text (.epi concrete syntax) into a session.
// Binding options (WithBind) populate the typing environment of the
// program's free variables. Parse failures — of the program or of a
// binding — return a *ParseError; type checking is deferred to Check (or
// the first Verify).
func (w *Workspace) NewSession(source string, opts ...Option) (*Session, error) {
	s := &Session{ws: w}
	for _, o := range opts {
		if err := o(&s.opt); err != nil {
			return nil, err
		}
	}
	env, err := BuildEnv(s.opt.binds)
	if err != nil {
		return nil, err
	}
	env, cache := w.adopt(env)
	prog, err := core.ParseInEnv(source, env)
	if err != nil {
		return nil, &ParseError{What: "program", Err: err}
	}
	s.prog, s.env, s.cache = prog, env, cache
	return s, nil
}

// NewSessionFromType wraps an already-built type and environment (e.g. a
// benchmark row of Fig9Systems) in a session. WithBind options are
// rejected — the environment is given.
func (w *Workspace) NewSessionFromType(env *Env, t Type, opts ...Option) (*Session, error) {
	s := &Session{ws: w, typ: t}
	for _, o := range opts {
		if err := o(&s.opt); err != nil {
			return nil, err
		}
	}
	if len(s.opt.binds) > 0 {
		return nil, fmt.Errorf("effpi: WithBind is not applicable to a type session (the environment is given)")
	}
	if env == nil {
		env = types.NewEnv()
	}
	s.env, s.cache = w.adopt(env)
	return s, nil
}

// Env returns the session's (canonical) typing environment.
func (s *Session) Env() *Env { return s.env }

// Check type-checks the session: for source sessions it infers the
// program's minimal λπ⩽ type (cached; failures are a *TypeError), for
// type sessions it returns the given type. ctx is accepted for interface
// uniformity; inference is not exploratory and completes quickly.
func (s *Session) Check(ctx context.Context) (Type, error) {
	s.typMu.Lock()
	defer s.typMu.Unlock()
	if s.typ != nil {
		return s.typ, nil
	}
	t, err := s.prog.Check()
	if err != nil {
		return nil, &TypeError{Err: err}
	}
	s.typ = t
	return t, nil
}

// applyClosed applies the session's WithClosed override to a property.
func (s *Session) applyClosed(p Property) Property {
	if s.opt.closed != nil {
		p.Closed = *s.opt.closed
	}
	return p
}

// Verify model-checks one property of the session's type (Thm. 4.10).
// The exploration and both model-checking passes are cancellable through
// ctx; a cancelled request returns an error satisfying
// errors.Is(err, context.Canceled) (or DeadlineExceeded) and leaves the
// workspace cache fully usable — a repeated identical request yields
// byte-identical verdicts and witnesses. Bound overflows come back as a
// *BoundExceededError, inadmissible types as a *TypeError.
func (s *Session) Verify(ctx context.Context, prop Property) (*Outcome, error) {
	t, err := s.admissible(ctx)
	if err != nil {
		return nil, err
	}
	prop = s.applyClosed(prop)
	s.emit(Event{Kind: EventPropertyStarted, Property: &prop})
	o, err := verify.VerifyContext(ctx, verify.Request{Env: s.env, Type: t, Property: prop, Options: s.options(&prop)})
	s.ws.sweep()
	if err != nil {
		return nil, wrapVerifyErr(err, s.opt.maxStates)
	}
	s.emit(Event{Kind: EventPropertyVerdict, Property: &prop, Holds: o.Holds, Witness: o.Witness, States: o.States})
	return o, nil
}

// VerifyAll verifies a batch of properties over one batch engine:
// properties with the same observable set check on one shared LTS, and
// all explorations run on the workspace cache (which reducer each
// exploration uses is planned once per batch; see the internal
// planBatch). The session's parallelism bounds how many explorations
// and checks run at once; outcomes always come back in input order,
// byte-identical at every parallelism. Passing the six Fig. 9
// properties of a system reproduces one row of the paper's table.
func (s *Session) VerifyAll(ctx context.Context, props ...Property) ([]*Outcome, error) {
	t, err := s.admissible(ctx)
	if err != nil {
		return nil, err
	}
	applied := make([]Property, len(props))
	for i, p := range props {
		applied[i] = s.applyClosed(p)
		s.emit(Event{Kind: EventPropertyStarted, Property: &applied[i]})
	}
	outs, err := verify.VerifyAllContext(ctx, s.env, t, applied, s.options(nil))
	s.ws.sweep()
	if err != nil {
		return outs, wrapVerifyErr(err, s.opt.maxStates)
	}
	for _, o := range outs {
		o := o
		s.emit(Event{Kind: EventPropertyVerdict, Property: &o.Property, Holds: o.Holds, Witness: o.Witness, States: o.States})
	}
	return outs, nil
}

// admissible type-checks the session and checks the type against
// Thm. 4.10's preconditions (failures are a *TypeError).
func (s *Session) admissible(ctx context.Context) (Type, error) {
	t, err := s.Check(ctx)
	if err != nil {
		return nil, err
	}
	if err := verify.Admissible(s.env, t); err != nil {
		return nil, &TypeError{Err: err}
	}
	return t, nil
}

// options is the session's configuration as engine options; progress
// events name prop (nil for a batch).
func (s *Session) options(prop *Property) verify.Options {
	return verify.Options{
		MaxStates:    s.opt.maxStates,
		Parallelism:  s.opt.parallelism,
		EarlyExit:    s.opt.earlyExit,
		Symmetry:     s.opt.symmetry,
		PartialOrder: s.opt.partialOrder,
		Cache:        s.cache,
		Progress:     s.progressHook(prop),
	}
}

// Explore builds the session type's labelled transition system under the
// Y-limitation given by observables (empty = fully closed composition,
// matching the CLI's default). The exploration runs on the workspace
// cache and is cancellable through ctx.
func (s *Session) Explore(ctx context.Context, observables ...string) (*LTS, error) {
	t, err := s.Check(ctx)
	if err != nil {
		return nil, err
	}
	obs := make(map[string]bool, len(observables))
	for _, x := range observables {
		obs[x] = true
	}
	sem := &typelts.Semantics{Env: s.env, Observable: obs, WitnessOnly: true, Cache: s.cache}
	m, err := lts.ExploreContext(ctx, sem, t, lts.Options{
		MaxStates: s.opt.maxStates,
		Progress:  s.progressHook(nil),
	})
	s.ws.sweep()
	if err != nil {
		return nil, wrapVerifyErr(err, s.opt.maxStates)
	}
	return m, nil
}

// Run executes a source session's program under the operational
// semantics for at most maxSteps reductions and returns the final term,
// rendered in concrete syntax.
func (s *Session) Run(ctx context.Context, maxSteps int) (string, error) {
	if s.prog == nil {
		return "", fmt.Errorf("effpi: session has no program to run (created from a type)")
	}
	if _, err := s.Check(ctx); err != nil {
		return "", err
	}
	final, err := s.prog.Run(maxSteps)
	if err != nil {
		return "", err
	}
	return syntax.PrintTerm(final), nil
}

// TraceStep is one reduction of a program trace: the rule that fired and
// the term it produced, rendered in concrete syntax.
type TraceStep struct {
	Rule string
	Term string
}

// TraceResult is a (possibly truncated) reduction sequence.
type TraceResult struct {
	// Initial is the starting term.
	Initial string
	// Steps are the reductions taken, in order.
	Steps []TraceStep
	// Done reports that the trace reached a term with no further
	// reductions (false = truncated at the step bound).
	Done bool
}

// Trace type-checks a source session's program and then reduces it step
// by step, recording each rule and intermediate term, for at most
// maxSteps reductions. A term reducing to a runtime error fails — by
// type safety (§3) that cannot happen for a well-typed program, so it
// would evidence a bug in the reproduction.
func (s *Session) Trace(ctx context.Context, maxSteps int) (*TraceResult, error) {
	if s.prog == nil {
		return nil, fmt.Errorf("effpi: session has no program to trace (created from a type)")
	}
	if _, err := s.Check(ctx); err != nil {
		return nil, err
	}
	res := &TraceResult{Initial: syntax.PrintTerm(s.prog.Term)}
	cur := s.prog.Term
	for i := 0; i < maxSteps; i++ {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("effpi: trace cancelled after %d steps: %w", i, err)
		}
		next, rule, ok := reduce.Step(cur)
		if !ok {
			res.Done = true
			return res, nil
		}
		cur = next
		res.Steps = append(res.Steps, TraceStep{Rule: rule, Term: syntax.PrintTerm(cur)})
		if reduce.IsError(cur) {
			return res, fmt.Errorf("effpi: term reduced to an error (this contradicts type safety)")
		}
	}
	return res, nil
}

// Bisimilar decides strong bisimilarity of this session's type and
// another's. Both sessions must share the same typing environment (the
// same workspace entry); the explorations are bounded by this session's
// WithMaxStates and cancellable through ctx.
func (s *Session) Bisimilar(ctx context.Context, other *Session) (bool, error) {
	t1, err := s.Check(ctx)
	if err != nil {
		return false, err
	}
	t2, err := other.Check(ctx)
	if err != nil {
		return false, err
	}
	if s.env != other.env {
		return false, fmt.Errorf("effpi: bisimilarity needs both sessions in the same typing environment (got %s vs %s)", s.env, other.env)
	}
	// The workspace cache is deliberately not shared here: it is built
	// in witness-only mode (the verification semantics), while
	// bisimilarity explores the unrestricted semantics — mismatched
	// entries would be wrong, and the internal layer refuses them.
	ok, err := lts.TypesBisimilarContext(ctx, s.env, t1, t2, lts.Options{MaxStates: s.opt.maxStates})
	if err != nil {
		return false, wrapVerifyErr(err, s.opt.maxStates)
	}
	return ok, nil
}
