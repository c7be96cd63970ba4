package systems

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"effpi/internal/verify"
)

// This file asserts the PR's acceptance criteria at the top of the stack:
// every failing property of the Fig. 9 benchmark matrix yields a
// replay-validated counterexample witness, witnesses are bit-identical
// across worker counts, and early-exit checking of a failing property
// explores strictly fewer states than the full pipeline.

// replayAllFailures verifies a system at the given parallelism and checks
// the witness contract on every outcome: LTL FAILs carry a witness that
// verify.Replay validates, PASSes and existential failures carry none.
// It returns the outcomes for cross-parallelism comparison.
func replayAllFailures(t *testing.T, s *System, maxStates, par int) []*verify.Outcome {
	t.Helper()
	outcomes, err := verify.VerifyAllWith(s.Env, s.Type, s.Props, verify.Options{MaxStates: maxStates, Parallelism: par})
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	for _, o := range outcomes {
		if o.Holds {
			if o.Witness != nil {
				t.Errorf("%s / %s: PASS must not carry a witness", s.Name, o.Property)
			}
			continue
		}
		if o.Property.Kind == verify.EventualOutput {
			if o.Witness != nil {
				t.Errorf("%s / %s: existential failure must not carry a witness", s.Name, o.Property)
			}
			continue
		}
		if o.Witness == nil {
			t.Fatalf("%s / %s: FAIL without witness", s.Name, o.Property)
		}
		if err := verify.Replay(o); err != nil {
			t.Errorf("%s / %s: witness does not replay: %v", s.Name, o.Property, err)
		}
	}
	return outcomes
}

// witnessesMatch compares the raw (state/label-index) witnesses of two
// outcome slices position by position.
func witnessesMatch(t *testing.T, name string, base, got []*verify.Outcome, par int) {
	t.Helper()
	if len(base) != len(got) {
		t.Fatalf("%s: %d outcomes at par=%d vs %d serial", name, len(got), par, len(base))
	}
	for i := range base {
		if !reflect.DeepEqual(rawWitness(base[i]), rawWitness(got[i])) {
			t.Errorf("%s / %s: witness at par=%d differs from the serial engine's", name, base[i].Property, par)
		}
	}
}

// TestWitnessReplaySmallSystems always runs: the small instances of every
// Fig. 9 family, witnesses replayed and compared across worker counts.
func TestWitnessReplaySmallSystems(t *testing.T) {
	for _, s := range []*System{
		PaymentAudit(2),
		DiningPhilosophers(3, true),
		DiningPhilosophers(3, false),
		PingPongPairs(2, false),
		PingPongPairs(2, true),
		Ring(4, 1),
	} {
		base := replayAllFailures(t, s, 1<<18, 1)
		for _, par := range []int{2, 8} {
			got := replayAllFailures(t, s, 1<<18, par)
			witnessesMatch(t, s.Name, base, got, par)
		}
	}
}

// TestFig9MatrixWitnesses covers the acceptance criterion on the full
// 19×6 matrix: every failing property at the paper's sizes yields a
// witness that verify.Replay validates, identically at 1, 2 and 8
// workers. Skipped in -short mode (the matrix is benchmark-sized).
func TestFig9MatrixWitnesses(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig. 9 witness matrix skipped in -short mode")
	}
	for _, s := range Fig9Systems() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			base := replayAllFailures(t, s, 1<<22, 1)
			for _, par := range []int{2, 8} {
				got := replayAllFailures(t, s, 1<<22, par)
				witnessesMatch(t, s.Name, base, got, par)
			}
		})
	}
}

// TestWitnessRenderingScheduleIndependent: the rendered witnesses — the
// user-visible output — of every Fig. 9 and Large row come out byte for
// byte the same from VerifyAll runs at widths 1, 2 and 8, each compared
// with the width-1 run, with reducers off and with symmetry and partial
// order on. At width ≥ 2 workers and explorations race on one interner,
// so this pins that rendering never depends on which equivalent
// spelling of a component was interned first.
func TestWitnessRenderingScheduleIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig. 9 and Large rows rendered twice at three widths skipped in -short mode")
	}
	render := func(outs []*verify.Outcome) string {
		var b strings.Builder
		for _, o := range outs {
			fmt.Fprintf(&b, "%s holds=%v\n", o.Property, o.Holds)
			if o.Witness != nil {
				b.WriteString(o.Witness.Render(0))
			}
		}
		return b.String()
	}
	configs := []struct {
		name string
		opts verify.Options
	}{
		{"off", verify.Options{}},
		{"symmetry+por", verify.Options{Symmetry: verify.SymmetryOn, PartialOrder: verify.PartialOrderOn}},
	}
	for _, s := range append(Fig9Systems(), LargeSystems()...) {
		for _, c := range configs {
			t.Run(c.name+"/"+s.Name, func(t *testing.T) {
				var want string
				for _, w := range []int{1, 2, 8} {
					opts := c.opts
					opts.Parallelism = w
					outs, err := verify.VerifyAllWith(s.Env, s.Type, s.Props, opts)
					if err != nil {
						t.Fatal(err)
					}
					if got := render(outs); w == 1 {
						want = got
					} else if got != want {
						t.Fatalf("width %d renders differently from width 1:\n%s\nvs\n%s", w, got, want)
					}
				}
			})
		}
	}
}

// TestEarlyExitPhilosophers5 is the early-exit acceptance criterion:
// checking a failing property of the 5-philosopher system on-the-fly must
// find a replay-valid witness while exploring strictly fewer states than
// the full pipeline.
func TestEarlyExitPhilosophers5(t *testing.T) {
	for _, deadlockVariant := range []bool{true, false} {
		s := DiningPhilosophers(5, deadlockVariant)
		for _, p := range s.Props {
			switch p.Kind {
			case verify.NonUsage, verify.DeadlockFree, verify.Reactive:
			default:
				continue
			}
			full, err := verify.Verify(verify.Request{Env: s.Env, Type: s.Type, Property: p, Options: verify.Options{Parallelism: 1}})
			if err != nil {
				t.Fatalf("%s / %s: %v", s.Name, p, err)
			}
			early, err := verify.Verify(verify.Request{Env: s.Env, Type: s.Type, Property: p, Options: verify.Options{EarlyExit: true}})
			if err != nil {
				t.Fatalf("%s / %s (early): %v", s.Name, p, err)
			}
			if early.Holds != full.Holds {
				t.Fatalf("%s / %s: early verdict %v, full %v", s.Name, p, early.Holds, full.Holds)
			}
			if full.Holds {
				continue
			}
			if early.States >= full.States {
				t.Errorf("%s / %s: early exit discovered %d states, full pipeline explored %d — no early-exit win",
					s.Name, p, early.States, full.States)
			}
			if err := verify.Replay(early); err != nil {
				t.Errorf("%s / %s: early-exit witness does not replay: %v", s.Name, p, err)
			}
			t.Logf("%s / %s: early exit %d discovered (%d expanded) vs %d full",
				s.Name, p, early.States, early.Expanded, full.States)
		}
	}
}
