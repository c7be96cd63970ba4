package effpi

// This file is the re-export surface of the public façade: the names an
// API consumer (including the repo's own cmd/ binaries, which import
// nothing but this package) needs from internal/. Aliases keep the
// public types identical to the internal ones — no conversion layer, no
// drift — while internal/ remains unimportable from outside the module.

import (
	"effpi/internal/lts"
	"effpi/internal/syntax"
	"effpi/internal/systems"
	"effpi/internal/typelts"
	"effpi/internal/types"
	"effpi/internal/verify"
)

type (
	// Property is a Fig. 7 property instance (kind + probe channels).
	Property = verify.Property
	// Kind enumerates the six Fig. 7 property schemas.
	Kind = verify.Kind
	// Outcome is one verification result: verdict, explored state count,
	// timing, and — on FAIL — the replay-validated counterexample.
	Outcome = verify.Outcome
	// Witness is a decoded counterexample lasso (see Outcome.Witness).
	Witness = verify.Witness
	// WitnessStep is one transition of a witness run.
	WitnessStep = verify.WitnessStep
	// Env is a typing environment Γ.
	Env = types.Env
	// Type is a λπ⩽ type.
	Type = types.Type
	// LTS is an explored type-level transition system.
	LTS = lts.LTS
	// Label is a transition label of the type semantics.
	Label = typelts.Label
	// ExploreProgress is a periodic snapshot of a running exploration.
	ExploreProgress = lts.Progress
	// BenchSystem is one benchmark row: a named system with its property
	// instances and the verdicts Fig. 9 publishes for them.
	BenchSystem = systems.System
	// SymmetryMode selects exploration-time symmetry reduction
	// (WithSymmetry).
	SymmetryMode = verify.SymmetryMode
	// PartialOrderMode selects exploration-time partial-order reduction
	// (WithPartialOrder).
	PartialOrderMode = verify.PartialOrderMode
)

// The six property schemas of Fig. 7.
const (
	NonUsage       = verify.NonUsage
	DeadlockFree   = verify.DeadlockFree
	EventualOutput = verify.EventualOutput
	Forwarding     = verify.Forwarding
	Reactive       = verify.Reactive
	Responsive     = verify.Responsive
)

// The symmetry modes of WithSymmetry.
const (
	// SymmetryOff explores the concrete state space (the default).
	SymmetryOff = verify.SymmetryOff
	// SymmetryOn explores orbit representatives under the system's
	// channel-bundle automorphism group, with permutation-tracked,
	// replay-validated witness lifting on every FAIL.
	SymmetryOn = verify.SymmetryOn
)

// The partial-order modes of WithPartialOrder.
const (
	// PartialOrderOff explores every enabled transition (the default).
	PartialOrderOff = verify.PartialOrderOff
	// PartialOrderOn explores an ample subset of each state's enabled
	// transitions; FAIL witnesses are concrete runs of the reduced
	// edge-subset, re-validated by the replay oracle.
	PartialOrderOn = verify.PartialOrderOn
)

// AllKinds lists the six schemas in the column order of Fig. 9.
func AllKinds() []Kind { return verify.AllKinds() }

// ParseSymmetry resolves a symmetry mode name ("off", "on") as used by
// CLI flags and the effpid request field.
func ParseSymmetry(name string) (SymmetryMode, error) { return verify.ParseSymmetry(name) }

// ParsePartialOrder resolves a partial-order mode name ("off", "on") as
// used by CLI flags and the effpid request field.
func ParsePartialOrder(name string) (PartialOrderMode, error) { return verify.ParsePartialOrder(name) }

// Replay re-validates a FAIL outcome by machine-checking its witness
// against the explored LTS and a freshly re-translated property
// automaton. See the internal verify.Replay for the full trust story.
func Replay(o *Outcome) error { return verify.Replay(o) }

// NewEnv returns an empty typing environment.
func NewEnv() *Env { return types.NewEnv() }

// ParseType parses a type in the .epi concrete syntax (e.g. "Chan[Int]").
func ParseType(src string) (Type, error) {
	t, err := syntax.ParseType(src)
	if err != nil {
		return nil, &ParseError{What: "type", Err: err}
	}
	return t, nil
}

// FormatType renders a type in the .epi concrete syntax.
func FormatType(t Type) string { return syntax.PrintType(t) }

// ClipRunes truncates s to at most n runes (0 = no truncation), cutting
// on a rune boundary so the multi-byte glyphs of rendered types survive.
func ClipRunes(s string, n int) string { return verify.ClipRunes(s, n) }

// Binding is one environment entry, named and typed in concrete syntax.
// It is the parsed form of a CLI "-bind x=TYPE" flag or a service
// request's "binds" object.
type Binding struct {
	Name string
	Type string
}

// BuildEnv assembles a typing environment from bindings, in order.
// Duplicate names and unparsable types fail with a *ParseError.
func BuildEnv(binds []Binding) (*Env, error) {
	env := types.NewEnv()
	for _, b := range binds {
		t, err := ParseType(b.Type)
		if err != nil {
			return nil, &ParseError{What: "binding " + b.Name, Err: err}
		}
		env, err = env.Extend(b.Name, t)
		if err != nil {
			return nil, &ParseError{What: "binding " + b.Name, Err: err}
		}
	}
	return env, nil
}

// Fig9Systems returns the 19 benchmark rows of the paper's Fig. 9.
func Fig9Systems() []*BenchSystem { return systems.Fig9Systems() }

// LargeSystems returns the beyond-Fig. 9 rows (up to half a million
// states).
func LargeSystems() []*BenchSystem { return systems.LargeSystems() }

// BenchSystemByName finds a benchmark row by its exact name among
// Fig9Systems and LargeSystems.
func BenchSystemByName(name string) (*BenchSystem, bool) {
	for _, s := range append(Fig9Systems(), LargeSystems()...) {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}
