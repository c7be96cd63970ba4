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

// WithEarlyExit selects on-the-fly checking; see DESIGN.md §The batch engine.
func WithEarlyExit(v bool) Option {
	return func(o *sessionOptions) error {
		o.earlyExit = v
		return nil
	}
}

// WithSymmetry selects symmetry reduction; see DESIGN.md §The batch engine.
func WithSymmetry(m SymmetryMode) Option {
	return func(o *sessionOptions) error {
		if m != SymmetryOff && m != SymmetryOn {
			return fmt.Errorf("effpi: unknown symmetry mode %v", m)
		}
		o.symmetry = m
		return nil
	}
}

// WithPartialOrder selects partial-order reduction; see DESIGN.md §The batch engine.
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
// calls from the batch executor's goroutines, which explore a batch's
// groups side by side (calls are serialised, but not pinned to one
// goroutine).
func WithProgress(fn func(Event)) Option {
	return func(o *sessionOptions) error {
		o.progress = fn
		return nil
	}
}
