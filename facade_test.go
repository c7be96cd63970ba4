package effpi

// Acceptance tests of the public façade: the session API must be a
// faithful skin over the internal pipeline (identical verdicts and
// witnesses on the full Fig. 9 matrix), workspaces must share and bound
// their caches, and cancellation must be prompt and non-poisoning.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"effpi/internal/verify"
)

// outcomeFingerprint canonicalises the determinism-relevant content of
// an outcome: verdict, state count, and the full rendered witness lasso.
func outcomeFingerprint(o *Outcome) string {
	s := fmt.Sprintf("%s|holds=%v|states=%d", o.Property, o.Holds, o.States)
	if o.Witness != nil {
		s += "|witness=" + o.Witness.Render(0)
	}
	return s
}

// TestFacadeMatrixMatchesVerifyAll drives the full 19×6 Fig. 9 matrix
// through the public Workspace/Session API and asserts byte-identical
// verdicts and witnesses against the internal verify.VerifyAll — the
// façade must add ownership and ergonomics, never change results. One
// workspace per row, mirroring VerifyAll's per-call cache exactly.
func TestFacadeMatrixMatchesVerifyAll(t *testing.T) {
	ctx := context.Background()
	for _, sys := range Fig9Systems() {
		sess, err := NewWorkspace().NewSessionFromType(sys.Env, sys.Type)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		got, err := sess.VerifyAll(ctx, sys.Props...)
		if err != nil {
			t.Fatalf("%s: façade: %v", sys.Name, err)
		}
		want, err := verify.VerifyAll(sys.Env, sys.Type, sys.Props, 0)
		if err != nil {
			t.Fatalf("%s: internal: %v", sys.Name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d outcomes vs %d", sys.Name, len(got), len(want))
		}
		for i := range got {
			g, w := outcomeFingerprint(got[i]), outcomeFingerprint(want[i])
			if g != w {
				t.Errorf("%s / %s: façade result differs:\n%s\nvs\n%s", sys.Name, got[i].Property, g, w)
			}
			if !got[i].Holds && got[i].Property.Kind != EventualOutput {
				if err := Replay(got[i]); err != nil {
					t.Errorf("%s / %s: façade witness does not replay: %v", sys.Name, got[i].Property, err)
				}
			}
		}
	}
}

// rawFingerprint canonicalises an outcome down to its cache-independent
// structure: verdict, state count, and the witness's state-id and
// label-index sequences. Unlike outcomeFingerprint it does not render
// representative types — under a cross-system shared workspace the
// interner may hand an ≡-equivalent representative first interned by a
// sibling system, which renders differently while naming the same state
// (see DESIGN.md, workspace sharing).
func rawFingerprint(o *Outcome) string {
	s := fmt.Sprintf("%s|holds=%v|states=%d", o.Property, o.Holds, o.States)
	if o.Witness != nil && o.Witness.Raw != nil {
		r := o.Witness.Raw
		s += fmt.Sprintf("|stem=%v%v|cycle=%v%v", r.StemStates, r.StemLabels, r.CycleStates, r.CycleLabels)
	}
	return s
}

// TestFacadeMatrixSharedWorkspace runs the matrix again over ONE
// workspace — the long-lived service shape, where sibling systems with
// equal environments share caches — and asserts that sharing never
// changes verdicts, state numbering or witness structure, and that every
// witness still replays.
func TestFacadeMatrixSharedWorkspace(t *testing.T) {
	ctx := context.Background()
	ws := NewWorkspace()
	for _, sys := range Fig9Systems() {
		sess, err := ws.NewSessionFromType(sys.Env, sys.Type)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		got, err := sess.VerifyAll(ctx, sys.Props...)
		if err != nil {
			t.Fatalf("%s: façade: %v", sys.Name, err)
		}
		want, err := verify.VerifyAll(sys.Env, sys.Type, sys.Props, 0)
		if err != nil {
			t.Fatalf("%s: internal: %v", sys.Name, err)
		}
		for i := range got {
			if g, w := rawFingerprint(got[i]), rawFingerprint(want[i]); g != w {
				t.Errorf("%s / %s: shared-workspace structure differs:\n%s\nvs\n%s", sys.Name, got[i].Property, g, w)
			}
			if !got[i].Holds && got[i].Property.Kind != EventualOutput {
				if err := Replay(got[i]); err != nil {
					t.Errorf("%s / %s: shared-workspace witness does not replay: %v", sys.Name, got[i].Property, err)
				}
			}
		}
	}
	if st := ws.CacheStats(); st.Caches == 0 {
		t.Error("shared workspace retained nothing")
	}
}

// TestWorkspaceSharesCanonicalEnv: sessions with equivalent environments
// (same bindings, any order/pointer) share one workspace cache entry and
// one canonical *Env.
func TestWorkspaceSharesCanonicalEnv(t *testing.T) {
	ws := NewWorkspace()
	s1, err := ws.NewSession(`send(c, 1, fun (_: Unit) => end)`, WithBind("c", "Chan[Int]"), WithBind("d", "Chan[Str]"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ws.NewSession(`recv(d, fun (x: Str) => end)`, WithBind("d", "Chan[Str]"), WithBind("c", "Chan[Int]"))
	if err != nil {
		t.Fatal(err)
	}
	if s1.Env() != s2.Env() {
		t.Error("equivalent environments must share one canonical *Env")
	}
	if st := ws.CacheStats(); st.Caches != 1 {
		t.Errorf("want 1 shared cache entry, got %d", st.Caches)
	}
}

// TestWorkspaceEviction: a tiny budget evicts least-recently-used caches
// after requests, the eviction counter advances, and evicted state is
// rebuilt transparently — later requests still verify correctly.
func TestWorkspaceEviction(t *testing.T) {
	ctx := context.Background()
	rows := Fig9Systems()
	run := func(ws *Workspace, sys *BenchSystem) *Outcome {
		t.Helper()
		sess, err := ws.NewSessionFromType(sys.Env, sys.Type)
		if err != nil {
			t.Fatal(err)
		}
		o, err := sess.Verify(ctx, sys.Props[0])
		if err != nil {
			t.Fatal(err)
		}
		return o
	}

	// A philosophers row interns thousands of entries: a budget of 10 is
	// always exceeded, so every sweep evicts everything retained.
	tiny := NewWorkspace(WithCacheBudget(10))
	first := run(tiny, rows[5])
	st := tiny.CacheStats()
	if st.Evictions == 0 {
		t.Fatalf("tiny budget must evict, stats: %+v", st)
	}
	if st.Memos > 10 {
		t.Errorf("retained memos %d exceed the budget", st.Memos)
	}
	// Eviction is invisible to correctness: the same request rebuilds the
	// cache and reproduces the outcome bit for bit.
	if again := run(tiny, rows[5]); outcomeFingerprint(again) != outcomeFingerprint(first) {
		t.Error("post-eviction rerun differs")
	}

	// Unlimited budget never evicts. rows[3] (4 philosophers) and
	// rows[5] (5 philosophers) have different environments — the two
	// no-deadlock/deadlock variants of one size share an env (and hence,
	// deliberately, one cache entry).
	unlimited := NewWorkspace(WithCacheBudget(-1))
	run(unlimited, rows[3])
	run(unlimited, rows[5])
	if st := unlimited.CacheStats(); st.Evictions != 0 || st.Caches != 2 {
		t.Errorf("unlimited budget evicted: %+v", st)
	}

	// The default budget comfortably retains a handful of rows.
	def := NewWorkspace()
	run(def, rows[3])
	run(def, rows[5])
	if st := def.CacheStats(); st.Caches != 2 || st.Evictions != 0 {
		t.Errorf("default budget evicted small rows: %+v", st)
	}
}

// TestSessionEvents: the streaming event interface delivers property
// lifecycle events and exploration progress, and the channel sink sees
// the same stream as the callback.
func TestSessionEvents(t *testing.T) {
	ctx := context.Background()
	ws := NewWorkspace()
	sys := Fig9Systems()[5] // Dining philos. (5, deadlock)

	var cbEvents []Event
	ch := make(chan Event, 4096)
	sess, err := ws.NewSessionFromType(sys.Env, sys.Type,
		WithParallelism(1),
		WithProgress(func(ev Event) { cbEvents = append(cbEvents, ev) }),
		WithEventChannel(ch))
	if err != nil {
		t.Fatal(err)
	}
	o, err := sess.Verify(ctx, sys.Props[0])
	if err != nil {
		t.Fatal(err)
	}
	close(ch)
	var chEvents []Event
	for ev := range ch {
		chEvents = append(chEvents, ev)
	}
	if len(cbEvents) != len(chEvents) {
		t.Errorf("callback saw %d events, channel %d", len(cbEvents), len(chEvents))
	}
	counts := map[EventKind]int{}
	var sawFinalProgress bool
	for _, ev := range cbEvents {
		counts[ev.Kind]++
		if ev.Kind == EventExploreProgress && ev.States == o.States && ev.Expanded == o.States {
			sawFinalProgress = true
		}
	}
	if counts[EventPropertyStarted] != 1 || counts[EventPropertyVerdict] != 1 {
		t.Errorf("lifecycle events: %v", counts)
	}
	if counts[EventExploreProgress] == 0 || !sawFinalProgress {
		t.Errorf("missing exploration progress (events %v, final=%v)", counts, sawFinalProgress)
	}
	for _, ev := range cbEvents {
		if ev.Kind == EventPropertyVerdict {
			if ev.Holds != o.Holds {
				t.Error("verdict event disagrees with outcome")
			}
			if !o.Holds && ev.Witness == nil {
				t.Error("FAIL verdict event without witness")
			}
		}
	}
}

// TestStructuredErrors: the façade classifies failures into its typed
// errors.
func TestStructuredErrors(t *testing.T) {
	ctx := context.Background()
	ws := NewWorkspace()

	if _, err := ws.NewSession(`send(`); err == nil {
		t.Error("unparsable program must fail")
	} else {
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("want *ParseError, got %T: %v", err, err)
		}
	}

	if _, err := ws.NewSession(`end`, WithBind("c", "NotAType[")); err == nil {
		t.Error("unparsable binding must fail")
	} else {
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("want *ParseError for binding, got %T: %v", err, err)
		}
	}

	s, err := ws.NewSession(`send(42, 1, fun (_: Unit) => end)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Check(ctx); err == nil {
		t.Error("ill-typed program must fail Check")
	} else {
		var te *TypeError
		if !errors.As(err, &te) {
			t.Errorf("want *TypeError, got %T: %v", err, err)
		}
	}

	// A 12-pair ping-pong has 531441 states; a bound of 100 overflows.
	sys := LargeSystems()[7]
	sess, err := ws.NewSessionFromType(sys.Env, sys.Type, WithMaxStates(100))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Verify(ctx, sys.Props[0]); err == nil {
		t.Error("tiny bound must overflow")
	} else {
		var be *BoundExceededError
		if !errors.As(err, &be) {
			t.Fatalf("want *BoundExceededError, got %T: %v", err, err)
		}
		if be.MaxStates != 100 {
			t.Errorf("bound error reports MaxStates=%d, want 100", be.MaxStates)
		}
	}
}

// TestCancellationMidExploration cancels a request from inside the
// exploration (deterministically, via the progress callback after a few
// hundred states) and asserts: prompt return, context.Canceled
// classification, and an unpoisoned workspace — the identical request
// afterwards succeeds with results byte-identical to a fresh workspace's.
func TestCancellationMidExploration(t *testing.T) {
	sys := LargeSystems()[0] // Dining philos. (7, deadlock): 2187 states
	ws := NewWorkspace()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sess, err := ws.NewSessionFromType(sys.Env, sys.Type,
		WithParallelism(1),
		WithProgress(func(ev Event) {
			if ev.Kind == EventExploreProgress && ev.States > 0 && ev.States < 2187 {
				cancel() // mid-exploration: the full space is 2187 states
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = sess.Verify(ctx, sys.Props[0])
	if err == nil {
		t.Fatal("cancelled request must fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %s — not prompt", elapsed)
	}

	// The workspace cache must be fully usable: the same request now
	// succeeds and matches a run on a virgin workspace byte for byte.
	redo, err := mustSession(t, ws, sys).Verify(context.Background(), sys.Props[0])
	if err != nil {
		t.Fatalf("post-cancellation request failed: %v", err)
	}
	fresh, err := mustSession(t, NewWorkspace(), sys).Verify(context.Background(), sys.Props[0])
	if err != nil {
		t.Fatal(err)
	}
	if outcomeFingerprint(redo) != outcomeFingerprint(fresh) {
		t.Errorf("post-cancellation result differs from a fresh workspace:\n%s\nvs\n%s",
			outcomeFingerprint(redo), outcomeFingerprint(fresh))
	}
}

// TestCancellationMidCheck cancels after the exploration completes (at
// the final progress event) so the context is dead exactly when the
// nested DFS runs — covering the model checker's cancellation path —
// then asserts the same non-poisoning contract.
func TestCancellationMidCheck(t *testing.T) {
	sys := Fig9Systems()[6] // Dining philos. (5, no deadlock): DFS must visit everything
	ws := NewWorkspace()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sess, err := ws.NewSessionFromType(sys.Env, sys.Type,
		WithParallelism(1),
		WithProgress(func(ev Event) {
			if ev.Kind == EventExploreProgress && ev.Expanded == ev.States && ev.States > 1 {
				cancel() // exploration finished; the NDFS is next
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = sess.Verify(ctx, sys.Props[0])
	if err == nil {
		t.Fatal("cancelled request must fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %s — not prompt", elapsed)
	}

	redo, err := mustSession(t, ws, sys).Verify(context.Background(), sys.Props[0])
	if err != nil {
		t.Fatalf("post-cancellation request failed: %v", err)
	}
	fresh, err := mustSession(t, NewWorkspace(), sys).Verify(context.Background(), sys.Props[0])
	if err != nil {
		t.Fatal(err)
	}
	if outcomeFingerprint(redo) != outcomeFingerprint(fresh) {
		t.Error("post-cancellation result differs from a fresh workspace")
	}
}

// TestCancellationEarlyExit covers the on-the-fly engine: a cancelled
// context aborts the incremental expansion promptly, and the session
// still works afterwards.
func TestCancellationEarlyExit(t *testing.T) {
	sys := LargeSystems()[0]
	ws := NewWorkspace()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // dead on arrival: the first expansion must notice
	sess, err := ws.NewSessionFromType(sys.Env, sys.Type, WithEarlyExit(true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Verify(ctx, sys.Props[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got: %v", err)
	}
	if _, err := sess.Verify(context.Background(), sys.Props[0]); err != nil {
		t.Fatalf("session unusable after cancellation: %v", err)
	}
}

// TestDeadlineExpires: a deadline in the past surfaces as
// context.DeadlineExceeded.
func TestDeadlineExpires(t *testing.T) {
	sys := Fig9Systems()[5]
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	sess := mustSession(t, NewWorkspace(), sys)
	if _, err := sess.Verify(ctx, sys.Props[0]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got: %v", err)
	}
}

func mustSession(t *testing.T, ws *Workspace, sys *BenchSystem, opts ...Option) *Session {
	t.Helper()
	sess, err := ws.NewSessionFromType(sys.Env, sys.Type, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestWithClosedOverride: the session-level WithClosed option overrides
// each property's own flag.
func TestWithClosedOverride(t *testing.T) {
	ctx := context.Background()
	ws := NewWorkspace()
	// An open probe on c: the environment can always inject on c, so the
	// closed and open verdicts differ for deadlock-freedom of a lone
	// sender (closed: stuck; open: the env consumes and the state loops).
	openProp := Property{Kind: DeadlockFree, Channels: []string{"c"}, Closed: false}
	mk := func(opts ...Option) *Outcome {
		t.Helper()
		s, err := ws.NewSession(`send(c, 1, fun (_: Unit) => end)`,
			append([]Option{WithBind("c", "Chan[Int]")}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		o, err := s.Verify(ctx, openProp)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	asGiven := mk()
	forced := mk(WithClosed(true))
	if !forced.Property.Closed {
		t.Error("WithClosed(true) must force the property closed")
	}
	if asGiven.Property.Closed {
		t.Error("without the option the property's own flag must survive")
	}
	if forced.Holds == asGiven.Holds && forced.States == asGiven.States {
		t.Log("note: closed/open verdicts coincide on this system; override still verified via Property.Closed")
	}
}

// TestWithSymmetry: the session-level symmetry option explores orbit
// representatives — verdicts, concrete States counts and witness replays
// identical to the reference session on a symmetric benchmark row,
// StatesExplored strictly below States (the ping-pong pairs are
// interchangeable), and the option rejects unknown modes.
func TestWithSymmetry(t *testing.T) {
	ctx := context.Background()
	sys, ok := BenchSystemByName("Ping-pong (6 pairs)")
	if !ok {
		t.Fatal("benchmark row not found")
	}
	run := func(opts ...Option) []*Outcome {
		t.Helper()
		sess, err := NewWorkspace().NewSessionFromType(sys.Env, sys.Type, opts...)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := sess.VerifyAll(ctx, sys.Props...)
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}
	base := run()
	sym := run(WithSymmetry(SymmetryOn))
	collapsed := false
	for i := range base {
		if sym[i].Holds != base[i].Holds || sym[i].States != base[i].States {
			t.Errorf("%s: symmetric (%v,%d) vs reference (%v,%d)", base[i].Property,
				sym[i].Holds, sym[i].States, base[i].Holds, base[i].States)
		}
		if base[i].StatesExplored != base[i].States {
			t.Errorf("%s: reference outcome explored %d of %d states", base[i].Property, base[i].StatesExplored, base[i].States)
		}
		if sym[i].StatesExplored < sym[i].States {
			collapsed = true
		}
		if !sym[i].Holds && sym[i].Property.Kind != EventualOutput {
			if err := Replay(sym[i]); err != nil {
				t.Errorf("%s: lifted witness does not replay through the façade: %v", base[i].Property, err)
			}
		}
	}
	if !collapsed {
		t.Error("no property explored fewer states than the concrete space — symmetry never engaged")
	}
	if _, err := NewWorkspace().NewSessionFromType(sys.Env, sys.Type, WithSymmetry(SymmetryMode(99))); err == nil {
		t.Error("WithSymmetry must reject unknown modes")
	}
}

// TestWithPartialOrder: the session-level partial-order option explores
// ample subsets — on a batch of the POR-eligible properties of a
// loosely-coupled benchmark row, verdicts are identical to the reference
// session, StatesExplored falls strictly below the reference States, and
// witness replays stay intact. The whole row is a mixed batch (its one
// group has members POR cannot serve), so there every outcome is
// byte-identical to the reference. The option rejects unknown modes.
func TestWithPartialOrder(t *testing.T) {
	ctx := context.Background()
	sys, ok := BenchSystemByName("Ping-pong (6 pairs)")
	if !ok {
		t.Fatal("benchmark row not found")
	}
	eligible := func(k Kind) bool { return k == NonUsage || k == DeadlockFree || k == Reactive }
	run := func(props []Property, opts ...Option) []*Outcome {
		t.Helper()
		sess, err := NewWorkspace().NewSessionFromType(sys.Env, sys.Type, opts...)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := sess.VerifyAll(ctx, props...)
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}
	base := run(sys.Props)
	var props []Property
	var idx []int
	for i, p := range sys.Props {
		if eligible(p.Kind) {
			props, idx = append(props, p), append(idx, i)
		}
	}
	red := run(props, WithPartialOrder(PartialOrderOn))
	reduced := false
	for i, o := range red {
		ref := base[idx[i]]
		if o.Holds != ref.Holds {
			t.Errorf("%s: reduced verdict %v, reference %v", ref.Property, o.Holds, ref.Holds)
		}
		if o.StatesExplored > ref.States {
			t.Errorf("%s: explored %d states, full space has %d", ref.Property, o.StatesExplored, ref.States)
		}
		if o.PartialOrder && o.StatesExplored < ref.States {
			reduced = true
		}
		if !o.PartialOrder && o.States != ref.States {
			t.Errorf("%s: disengaged mode changed States %d -> %d", ref.Property, ref.States, o.States)
		}
		if !o.Holds && o.PartialOrder {
			if err := Replay(o); err != nil {
				t.Errorf("%s: reduced witness does not replay through the façade: %v", ref.Property, err)
			}
		}
	}
	if !reduced {
		t.Error("no property explored fewer states than the concrete space — partial order never engaged")
	}
	mixed := run(sys.Props, WithPartialOrder(PartialOrderOn))
	for i, o := range mixed {
		if rawFingerprint(o)+fmt.Sprint(o.StatesExplored, o.PartialOrder) != rawFingerprint(base[i])+fmt.Sprint(base[i].StatesExplored, base[i].PartialOrder) {
			t.Errorf("%s: mixed-batch outcome differs from the reference session", o.Property)
		}
	}
	if _, err := NewWorkspace().NewSessionFromType(sys.Env, sys.Type, WithPartialOrder(PartialOrderMode(99))); err == nil {
		t.Error("WithPartialOrder must reject unknown modes")
	}
}
