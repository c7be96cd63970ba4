// Package effpi is a from-scratch Go reproduction of "Verifying
// Message-Passing Programs with Dependent Behavioural Types" (Scalas,
// Yoshida, Benussi; PLDI 2019) — the Effpi system — grown into a
// session-oriented verification library and service.
//
// This package is the public API. A Workspace owns the state worth
// keeping between requests (the hash-consed type interner and the
// memoised transition semantics, with a size-bounded eviction policy); a
// Session binds one program or type to a workspace and is configured
// with functional options (WithMaxStates, WithParallelism,
// WithEarlyExit, WithSymmetry, WithPartialOrder,
// WithClosed, WithProgress, …):
//
//	ws := effpi.NewWorkspace()
//	s, err := ws.NewSession(src, effpi.WithBind("c", "Chan[Int]"))
//	outcome, err := s.Verify(ctx, effpi.Property{Kind: effpi.DeadlockFree, Channels: []string{"c"}, Closed: true})
//
// WithParallelism is the width of VerifyAll's batch executor: how many
// explorations and checks run at once, each exploration serial. Every
// exploration and model-checking pass is cancellable and
// deadline-aware through the context; errors are structured
// (*ParseError, *TypeError, *BoundExceededError), and progress streams
// through WithProgress / WithEventChannel. The implementation lives
// under internal/ (see DESIGN.md for the module map) and is not
// importable — the façade re-exports everything the executables under
// cmd/ (effpi, effpid, savina, mcbench) and external consumers need.
// cmd/effpid serves this API over HTTP from one long-lived shared
// workspace, behind an admission-controlled job queue: POST /v1/verify
// (synchronous), POST /v1/jobs + GET/DELETE /v1/jobs/{id} (asynchronous
// submit/poll/cancel), GET /healthz, GET /readyz, GET /metrics. A
// saturated queue answers 429 with a Retry-After estimate. See
// README.md for a curl walkthrough.
//
// Reading counterexample output: a failing property is reported as a
// lasso-shaped witness — a stem of transitions from the initial state
// followed by a cycle that repeats forever, with the parallel component
// multiset printed at every visited state. "effpi verify" prints the
// witness and exits non-zero on FAIL; effpid responses embed it (field
// "witness", with state ids and labels — effpid is the only JSON witness
// emitter; "mcbench -json" records only each witness's length and the
// SHA-256 of its rendering). Every
// witness is replay-validated before it is shown: the run is re-executed
// against the explored transition system and the property's Büchi
// automaton (Replay), so a reported FAIL is a checkable artifact. The
// "-early" flag of effpi verify (WithEarlyExit here) stops exploring as
// soon as a violation exists (on-the-fly checking; see DESIGN.md).
//
// Symmetry reduction: WithSymmetry(SymmetryOn) — "-symmetry on" in
// effpi verify, "-symmetry" in mcbench, "symmetry": "on" in effpid
// requests — shrinks the *exploration* itself: closed systems are
// analysed for a channel permutation group, the direct product of
// symmetric groups over classes of interchangeable channel bundles,
// and the BFS canonicalises every successor to an orbit representative
// under that group, so symmetric interleavings are never materialised
// (Outcome.StatesExplored representatives cover Outcome.States
// concrete states; the 12-pair ping-pong row explores 234 in place of
// 531 441). Every orbit edge records its canonicalising permutation; a
// FAIL's orbit counterexample is rewritten into a concrete run by
// composing those permutations and re-validated by the replay oracle
// before it is returned. Symmetry composes with WithEarlyExit, and
// falls back to the concrete pipeline for open
// (non-Closed) properties; see DESIGN.md §symmetry.
//
// Go-source frontend: FromPackages (and ExtractGoSource for a single
// in-memory file) statically extracts behavioural types from Go
// programs written against the repo's own proc combinators
// (internal/runtime Send/Recv/Par, internal/actor Tell/Read/Forever) —
// "effpi verify ./..." on the command line. Each exported
// proc-returning entry function becomes a GoSystem carrying the
// extracted Env, Type and a SourceMap from protocol actions back to
// file:line:col positions; NewSessionFromGo (or WithSourceMap) threads
// the map into verification so FAIL witnesses render and serialise
// with source positions (RenderWitnessWithSource, WitnessToJSONMapped
// — effpid's "go_source" requests and the "pos" witness field).
// Constructs outside the extractable fragment produce positioned
// GoDiagnostics — τ-widened over-approximations where sound, refusals
// where not, never a silently wrong term; "effpi lint" surfaces them
// standalone. Dependencies are typechecked
// once per process: the first extraction pays the standard-library and
// module typecheck (~0.7 s), later ones take milliseconds and still see
// every edit to a dependency. See DESIGN.md §Go-source frontend.
//
// Partial-order reduction: WithPartialOrder(PartialOrderOn) — "-por on"
// in effpi verify, "-por" in mcbench, "partial_order": "on" in effpid
// requests — prunes the exploration along the other axis: per state the
// engine registers only an ample subset of the enabled transitions
// (computed from the independence of their participating components,
// with the property's visible actions protected), so commuting
// interleavings of independent components are explored in one canonical
// order and the dropped diamond states are never materialised. Ample
// sets only drop edges, so a FAIL's counterexample is already a
// concrete run — it is re-validated by the replay oracle before it is
// returned, no lifting needed; Outcome.States and
// Outcome.StatesExplored both count the reduced space. Where it engages
// is one planner rule (DESIGN.md §batch engine); see DESIGN.md
// §partial-order for the ample conditions and the Dining-shaped
// negative result.
package effpi
