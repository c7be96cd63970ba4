package effpi

// EventKind discriminates the streaming progress events a Session emits
// while a verification request runs.
type EventKind int

const (
	// EventExploreProgress reports a running exploration's state/edge
	// counts: every few hundred expanded states, and once when the
	// exploration completes.
	EventExploreProgress EventKind = iota
	// EventPropertyStarted reports that a property's verification began.
	EventPropertyStarted
	// EventPropertyVerdict reports a property's verdict; on FAIL,
	// Witness carries the replay-validated counterexample (nil for
	// ev-usage, whose failures have no single-run witness).
	EventPropertyVerdict
)

func (k EventKind) String() string {
	switch k {
	case EventExploreProgress:
		return "explore-progress"
	case EventPropertyStarted:
		return "property-started"
	case EventPropertyVerdict:
		return "property-verdict"
	}
	return "unknown"
}

// Event is one streaming progress event. Which fields are meaningful
// depends on Kind; the zero value of the rest is not significant.
type Event struct {
	Kind EventKind
	// Property identifies the property for the property-scoped kinds.
	// Progress events during a VerifyAll batch carry no property: the
	// underlying explorations are shared between properties.
	Property *Property
	// States/Expanded/Edges are the exploration counters of an
	// EventExploreProgress.
	States, Expanded, Edges int
	// Holds is the verdict of an EventPropertyVerdict.
	Holds bool
	// Witness is the counterexample of a failing EventPropertyVerdict.
	Witness *Witness
}

// emit delivers an event to the session's sinks. The callback runs
// synchronously on the emitting goroutine; the channel send blocks until
// the consumer is ready (use a buffered channel or a draining goroutine).
// Exploration progress can be emitted from the concurrent engine's merge
// goroutines, so delivery is serialised through the session's mutex —
// sinks never run concurrently with themselves.
func (s *Session) emit(ev Event) {
	if s.opt.progress == nil && s.opt.events == nil {
		return
	}
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	if s.opt.progress != nil {
		s.opt.progress(ev)
	}
	if s.opt.events != nil {
		s.opt.events <- ev
	}
}

// progressHook adapts the session's event sinks to the exploration-level
// progress callback, or nil when no sink is configured (so the engines
// skip the callback entirely).
func (s *Session) progressHook(prop *Property) func(ExploreProgress) {
	if s.opt.progress == nil && s.opt.events == nil {
		return nil
	}
	return func(p ExploreProgress) {
		s.emit(Event{Kind: EventExploreProgress, Property: prop, States: p.States, Expanded: p.Expanded, Edges: p.Edges})
	}
}
