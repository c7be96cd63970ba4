// Package verify implements the paper's headline result: verification of
// safety and liveness properties of message-passing programs by model
// checking their types (Thm. 4.10 and Fig. 7).
//
// Given Γ ⊢ t : T, a property of t is established by (1) exploring the
// labelled transition system of T under the Y-limitation ↑Γ {x1..xn}
// (Def. 4.2, 4.9), (2) compiling the requested property schema from the
// right-hand column of Fig. 7 — using the input/output uses of Def. 4.8
// and the imprecise-synchronisation set Aτ — and (3) model checking the
// formula on the LTS. The paper delegated step (3) to mCRL2; here it is
// the native checker of package mucalc.
package verify

import (
	"context"
	"fmt"
	"strings"
	"time"

	"effpi/internal/lts"
	"effpi/internal/mucalc"
	"effpi/internal/typelts"
	"effpi/internal/types"
)

// Kind enumerates the property schemas of Fig. 7.
type Kind int

const (
	// NonUsage (Fig. 7.1): none of the probed channels is ever used for
	// output.
	NonUsage Kind = iota
	// DeadlockFree (Fig. 7.2): the process only pauses to interact on the
	// probed channels and never gets stuck (proper termination ✔ counts
	// as success, see DESIGN.md).
	DeadlockFree
	// EventualOutput (Fig. 7.3): some probed channel is eventually used
	// for output, with no imprecise synchronisation before.
	EventualOutput
	// Forwarding (Fig. 7.4): every z received from channel From is
	// eventually forwarded on channel To, before From is read again.
	Forwarding
	// Reactive (Fig. 7.5): the process runs forever and is always
	// eventually able to receive from channel From.
	Reactive
	// Responsive (Fig. 7.6): every channel z received from From is
	// eventually used to send a response, before From is read again.
	Responsive
)

var kindNames = map[Kind]string{
	NonUsage:       "non-usage",
	DeadlockFree:   "deadlock-free",
	EventualOutput: "ev-usage",
	Forwarding:     "forwarding",
	Reactive:       "reactive",
	Responsive:     "responsive",
}

func (k Kind) String() string { return kindNames[k] }

// AllKinds lists the six schemas in the column order of Fig. 9.
func AllKinds() []Kind {
	return []Kind{DeadlockFree, EventualOutput, Forwarding, NonUsage, Reactive, Responsive}
}

// Property is a property instance to verify.
type Property struct {
	Kind Kind
	// Channels are the probe channels x1..xn (NonUsage, DeadlockFree,
	// EventualOutput).
	Channels []string
	// From and To parameterise Forwarding (From → To); Reactive and
	// Responsive use From only.
	From, To string
	// Closed verifies the type as a closed composition: the Y-limitation
	// is ∅, so no free inputs/outputs fire and every action is an
	// internal synchronisation (whose labels record subjects and
	// payloads, so the Def. 4.8 use-sets still see them). This is the
	// right mode for self-contained systems such as the Fig. 9
	// benchmarks: free environment moves would otherwise let arbitrarily
	// unfair injections starve any liveness obligation. Open (partial)
	// processes leave Closed false, exposing the probe channels to the
	// environment as in Def. 4.9.
	Closed bool
}

// Observables returns the Y-limitation set implied by the property.
func (p Property) Observables() []string {
	switch p.Kind {
	case Forwarding:
		return []string{p.From, p.To}
	case Reactive, Responsive:
		return []string{p.From}
	default:
		return p.Channels
	}
}

func (p Property) String() string {
	switch p.Kind {
	case Forwarding:
		return fmt.Sprintf("forwarding(%s→%s)", p.From, p.To)
	case Reactive, Responsive:
		return fmt.Sprintf("%s(%s)", p.Kind, p.From)
	default:
		return fmt.Sprintf("%s(%s)", p.Kind, strings.Join(p.Channels, ","))
	}
}

// Request bundles a verification query: check that every process of type
// Type (in Env) satisfies Property.
type Request struct {
	Env      *types.Env
	Type     types.Type
	Property Property
	Options
}

// Outcome is a verification result.
type Outcome struct {
	Property Property
	// Holds is the verdict: by Thm. 4.10, when it is true, every
	// productive process of the given type satisfies the corresponding
	// left-column property of Fig. 7 at run time.
	Holds bool
	// Formula is the compiled right-column formula.
	Formula mucalc.Formula
	// States is the size of the (Y-limited, run-completed) type LTS: the
	// number of concrete states the verdict covers. Under symmetry
	// reduction it is the sum of orbit sizes (saturating at MaxInt64 —
	// then reported as the int cap), so it equals what a concrete
	// exploration would have visited; StatesExplored is what was actually
	// explored.
	States int
	// StatesExplored is the number of states the exploration materialised
	// — orbit representatives under symmetry reduction, otherwise equal
	// to States. The symmetry win is States / StatesExplored.
	StatesExplored int
	// ProductStates and AutomatonStates report model-checker effort.
	ProductStates   int
	AutomatonStates int
	// Duration is the wall-clock time spent on this property alone: its
	// check, and for a FAIL the lift and replay, plus any exploration that
	// served no other property (so a lone Verify includes its
	// exploration). The definition is the same at every Parallelism.
	Duration time.Duration
	// Counterexample is a violating run when Holds is false.
	Counterexample *mucalc.Trace
	// Witness, when Holds is false, is the decoded state-level lasso
	// behind Counterexample: every visited LTS state with its component
	// multiset, machine-replayable via Replay. EventualOutput failures
	// carry no witness (the schema is existential; see Replay).
	Witness *Witness
	// LTS is the explored state space (reusable across properties). Under
	// EarlyExit it is the explored fragment (lts.LTS.Partial) and must not
	// be reused.
	LTS *lts.LTS
	// WitnessLTS, when the outcome is a symmetric FAIL, is the concrete
	// fragment the lifted witness runs over (the orbit LTS's states and
	// labels are canonical representatives, so the witness cannot
	// validate against LTS). Replay validates against it when set; the
	// outcome's Formula is then the property recompiled over its
	// alphabet.
	WitnessLTS *lts.LTS
	// EarlyExit reports that the on-the-fly engine produced this outcome:
	// States counts discovered states only, and Expanded of them were
	// materialised before the search concluded.
	EarlyExit bool
	Expanded  int
	// PartialOrder reports that the exploration ran under partial-order
	// reduction: States and StatesExplored count the ample-reduced state
	// space — a subset of the full one, whose size is never computed —
	// and a FAIL witness is a concrete run of that subset, validated by
	// Replay. Where the reduction engages is planBatch's routing rule.
	PartialOrder bool
}

// Verify runs the full pipeline for one property.
func Verify(req Request) (*Outcome, error) {
	return VerifyContext(context.Background(), req)
}

// VerifyContext is Verify with cancellation: ctx is plumbed into the LTS
// exploration and the model-checking passes, so the request returns
// promptly — with an error wrapping ctx.Err() — once the context is
// cancelled or past its deadline. A cancelled request leaves any shared
// typelts.Cache fully usable: the cache is an append-only memo of
// schedule-independent entries, so a later identical request produces
// byte-identical verdicts and witnesses. The request is a batch of one
// through the VerifyAll engine.
func VerifyContext(ctx context.Context, req Request) (*Outcome, error) {
	outs, err := verifyBatch(ctx, req.Env, req.Type, []Property{req.Property}, req.Options)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// finishFail is the tail every FAIL runs through, whichever engine found
// it: a witness over an orbit LTS is first lifted to a concrete run, and
// a witness found on any reduced space — orbits, or an ample-reduced
// edge-subset whose runs are already concrete — is only reported once
// the replay oracle confirms a genuine concrete violation. It checks the
// deadline first.
func finishFail(ctx context.Context, req Request, sem *typelts.Semantics, m *lts.LTS, out *Outcome) error {
	if out.Holds {
		return nil
	}
	if err := deadline(ctx, beforeLift); err != nil {
		return err
	}
	symmetric := m.Sym != nil && out.Witness != nil
	if symmetric {
		if err := liftSymmetric(ctx, req, sem, m, out); err != nil {
			return fmt.Errorf("verify: symmetry produced an invalid counterexample lift: %w", err)
		}
	}
	if symmetric || out.PartialOrder {
		if err := Replay(out); err != nil {
			return fmt.Errorf("verify: reduction produced an invalid counterexample: %w", err)
		}
	}
	return nil
}

// verifyOnTheFly runs the early-exit pipeline on the property's formula
// compiled with no alphabet: the nested DFS of mucalc.CheckModel drives
// an incremental exploration, materialising states only as the search
// reaches them. The formula's top-level
// conjuncts are checked one at a time over the shared exploration,
// short-circuiting on the first violation — a run violating one conjunct
// violates the conjunction, so the remaining conjuncts (whose PASS proofs
// would force exhaustive exploration) are never started. Verdicts equal
// the full pipeline's: a predicate action set holds the same labels as
// its restriction to any alphabet, and conjunction short-circuiting
// preserves T |= ϕ1∧ϕ2.
func verifyOnTheFly(ctx context.Context, req Request, sem *typelts.Semantics, sym *lts.Symmetry, por *lts.POR) (*Outcome, error) {
	phi, err := compile(req.Env, nil, req.Property)
	if err != nil {
		return nil, err
	}
	inc := lts.NewIncrementalContext(ctx, sem, req.Type, lts.Options{MaxStates: req.MaxStates, Progress: req.Progress, Symmetry: sym, PartialOrder: por})
	out := &Outcome{
		Property:     req.Property,
		Holds:        true,
		Formula:      phi,
		EarlyExit:    true,
		PartialOrder: por != nil,
	}
	var failed mucalc.Result
	for _, c := range conjuncts(phi) {
		res, err := mucalc.CheckModelContext(ctx, inc, c)
		if err != nil {
			return nil, err
		}
		out.ProductStates += res.ProductStates
		out.AutomatonStates += res.AutomatonStates
		if !res.Holds {
			out.Holds = false
			failed = res
			break
		}
	}
	m := inc.Snapshot()
	out.States = int(m.Covered())
	out.StatesExplored = m.Len()
	out.LTS = m
	out.Expanded = inc.Expanded()
	if !out.Holds {
		out.Counterexample = failed.Counterexample
		out.Witness = DecodeWitness(m, failed.Witness)
		if err := finishFail(ctx, req, sem, m, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// conjuncts orders phi's top-level conjuncts for the on-the-fly engine.
// Order matters for the early-exit payoff: a conjunct that holds forces
// exhaustive exploration (proving □(−Aτ)⊤ means seeing every state), so
// the schema's main obligation on the right — the part that fails on
// broken systems, whose violations a shallow dive finds — comes first,
// and the Aτ conjunct on the left last.
func conjuncts(phi mucalc.Formula) []mucalc.Formula {
	if a, ok := phi.(mucalc.And); ok {
		return []mucalc.Formula{a.R, a.L}
	}
	return []mucalc.Formula{phi}
}

// ObservablesFor computes the Y-limitation set for a property: the
// property's probe channels, plus — for Responsive — the environment
// witnesses of channels receivable on From (Thm. 4.10's footnote assumes
// such witnesses exist in Γ; their outputs carry the response obligation
// {z⟨U′⟩}, so they must remain observable).
func ObservablesFor(env *types.Env, p Property) ([]string, error) {
	base := p.Observables()
	for _, x := range base {
		if !env.Has(x) {
			return nil, fmt.Errorf("verify: probe channel %s is not in the environment", x)
		}
	}
	if p.Closed {
		return nil, nil
	}
	if p.Kind != Responsive {
		return base, nil
	}
	out := append([]string{}, base...)
	seen := map[string]bool{}
	for _, x := range base {
		seen[x] = true
	}
	cap, ok := types.ResolveChan(env, types.Var{Name: p.From})
	if !ok || !cap.In {
		return out, nil
	}
	for _, w := range env.Names() {
		if seen[w] {
			continue
		}
		if types.Subtype(env, types.Var{Name: w}, cap.Payload) {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out, nil
}

// Admissible checks the preconditions of Thm. 4.10 and Lemma 4.7: the
// type must be a well-formed π-type, must not contain proc, must be
// guarded, and must have finite control (no p[...] under µ).
func Admissible(env *types.Env, t types.Type) error {
	if err := types.CheckProcType(env, t); err != nil {
		return fmt.Errorf("verify: not a π-type: %w", err)
	}
	if containsProc(t) {
		return fmt.Errorf("verify: type contains proc, which Thm. 4.10 excludes (proc hides behaviour)")
	}
	if err := types.CheckGuarded(t); err != nil {
		return fmt.Errorf("verify: %w (Lemma 4.7 requires guarded types)", err)
	}
	if err := types.CheckFiniteControl(t); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	return nil
}

func containsProc(t types.Type) bool {
	switch t := t.(type) {
	case types.Proc:
		return true
	case types.Union:
		return containsProc(t.L) || containsProc(t.R)
	case types.Pi:
		return containsProc(t.Dom) || containsProc(t.Cod)
	case types.Rec:
		return containsProc(t.Body)
	case types.ChanIO:
		return containsProc(t.Elem)
	case types.ChanI:
		return containsProc(t.Elem)
	case types.ChanO:
		return containsProc(t.Elem)
	case types.Out:
		return containsProc(t.Ch) || containsProc(t.Payload) || containsProc(t.Cont)
	case types.In:
		return containsProc(t.Ch) || containsProc(t.Cont)
	case types.Par:
		return containsProc(t.L) || containsProc(t.R)
	default:
		return false
	}
}
