package effpi

import "fmt"

// Option configures a Session at creation time. Options replace the
// internal layer's ever-growing request struct: a session is configured
// once, then every call on it (Verify, VerifyAll, Explore, …) runs under
// the same knobs.
type Option func(*sessionOptions) error

type sessionOptions struct {
	binds        []Binding
	maxStates    int
	parallelism  int
	earlyExit    bool
	symmetry     SymmetryMode
	partialOrder PartialOrderMode
	// closed, when non-nil, overrides Property.Closed on every property
	// the session verifies.
	closed   *bool
	progress func(Event)
	events   chan<- Event
	// smap, when non-nil, maps extracted actions back to source
	// positions (WithSourceMap / frontend extraction).
	smap *SourceMap
}

// WithBind adds x:TYPE to the session's typing environment, with TYPE in
// the .epi concrete syntax (e.g. "Chan[Int]"). Repeatable; unparsable
// types and duplicate names surface as a *ParseError from the session
// constructor.
func WithBind(name, typeSrc string) Option {
	return func(o *sessionOptions) error {
		o.binds = append(o.binds, Binding{Name: name, Type: typeSrc})
		return nil
	}
}

// WithMaxStates bounds every LTS exploration the session runs
// (0 = the engine default of 2^20 states). Exceeding the bound fails the
// request with a *BoundExceededError.
func WithMaxStates(n int) Option {
	return func(o *sessionOptions) error {
		o.maxStates = n
		return nil
	}
}

// WithParallelism sets the width of VerifyAll's batch executor: how many
// explorations and checks run at once (0 = GOMAXPROCS, 1 = one thing at
// a time). Each exploration is serial, so Verify, Explore and
// Bisimilar do not depend on it. Verdicts, state counts and witnesses
// are identical at any value; only wall-clock changes.
func WithParallelism(n int) Option {
	return func(o *sessionOptions) error {
		o.parallelism = n
		return nil
	}
}

// WithEarlyExit selects on-the-fly checking: exploration stops as soon
// as a violation is found. Verdicts are identical to the full
// pipeline's.
// Which explorations it engages on is decided once per batch by the
// engine's planner (internal/verify planBatch; DESIGN.md §batch).
func WithEarlyExit(v bool) Option {
	return func(o *sessionOptions) error {
		o.earlyExit = v
		return nil
	}
}

// WithSymmetry selects exploration-time symmetry reduction (SymmetryOn):
// states are canonicalised to orbit representatives of the system's
// channel-bundle automorphism group (interchangeable replicas of one
// component shape), so n interchangeable processes cost the engine a
// phase-count state space instead of a phase-vector one — the n-pair
// ping-pong benchmarks drop from 3^n states to O(n²). Verdicts, the
// concrete Outcome.States count, and witness replays are identical to
// SymmetryOff (the default); Outcome.StatesExplored reports the orbit
// representatives actually explored, and every failing property's
// counterexample is lifted through the recorded permutations back to a
// concrete run and machine-re-checked by the replay oracle before it is
// returned. Which explorations it engages on is decided once per batch by the
// engine's planner (internal/verify planBatch; DESIGN.md §batch).
func WithSymmetry(m SymmetryMode) Option {
	return func(o *sessionOptions) error {
		if m != SymmetryOff && m != SymmetryOn {
			return fmt.Errorf("effpi: unknown symmetry mode %v", m)
		}
		o.symmetry = m
		return nil
	}
}

// WithPartialOrder selects exploration-time partial-order reduction
// (PartialOrderOn): each explored state registers only an ample subset
// of its enabled transitions, computed from the independence relation of
// the type semantics with the property's visible labels excluded —
// commuting interleavings of independent components collapse into one
// canonical corridor, so compositions whose conflict graph falls apart
// into independent clusters (the n-pair ping-pong benchmarks) shrink
// from 3^n states to a near-linear corridor. Verdicts are identical to
// PartialOrderOff (the default); Outcome.StatesExplored reports the
// reduced state count, and every failing property's counterexample —
// already a concrete run, since ample sets only drop edges — is
// machine-re-checked by the replay oracle before it is returned.
// Which explorations it engages on is decided once per batch by the
// engine's planner (internal/verify planBatch; DESIGN.md §batch).
func WithPartialOrder(m PartialOrderMode) Option {
	return func(o *sessionOptions) error {
		if m != PartialOrderOff && m != PartialOrderOn {
			return fmt.Errorf("effpi: unknown partial-order mode %v", m)
		}
		o.partialOrder = m
		return nil
	}
}

// WithClosed forces every property the session verifies into closed
// (true) or open (false) composition mode, overriding Property.Closed.
// Sessions without this option leave each property's own flag intact.
func WithClosed(v bool) Option {
	return func(o *sessionOptions) error {
		o.closed = &v
		return nil
	}
}

// WithProgress registers a callback for streaming progress events
// (exploration counters, property started/verdict). The callback runs
// synchronously on the emitting goroutine — keep it fast, and safe for
// calls from the concurrent engine's merge goroutines (calls are
// serialised, but not pinned to one goroutine).
func WithProgress(fn func(Event)) Option {
	return func(o *sessionOptions) error {
		o.progress = fn
		return nil
	}
}

// WithEventChannel streams progress events into ch. Sends block until
// the consumer is ready: use a buffered channel or a dedicated draining
// goroutine, and do not close ch while the session is in use.
func WithEventChannel(ch chan<- Event) Option {
	return func(o *sessionOptions) error {
		o.events = ch
		return nil
	}
}
