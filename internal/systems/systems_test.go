package systems

import (
	"fmt"
	"testing"

	"effpi/internal/types"
	"effpi/internal/verify"
)

// checkSystem verifies all six properties of a system against the
// expected verdicts at the default parallelism.
func checkSystem(t *testing.T, s *System, maxStates int) {
	t.Helper()
	checkSystemWith(t, s, verify.Options{MaxStates: maxStates})
}

func checkSystemWith(t *testing.T, s *System, opts verify.Options) {
	t.Helper()
	if err := verify.Admissible(s.Env, s.Type); err != nil {
		t.Fatalf("%s: not admissible: %v", s.Name, err)
	}
	outcomes, err := verify.VerifyAllWith(s.Env, s.Type, s.Props, opts)
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	for _, o := range outcomes {
		want, ok := s.Expected[o.Property.Kind]
		if !ok {
			continue
		}
		if o.Holds != want {
			t.Errorf("%s / %s: got %v, want %v (states=%d)", s.Name, o.Property, o.Holds, want, o.States)
			if o.Counterexample != nil && want {
				t.Logf("  counterexample prefix: %v", o.Counterexample.Prefix)
				t.Logf("  counterexample cycle:  %v", o.Counterexample.Cycle)
			}
		}
	}
}

// Small instances keep the unit-test suite fast; the full Fig. 9 sizes
// run in TestFig9Matrix (guarded by -short) and in cmd/mcbench.

func TestPaymentAuditSmall(t *testing.T) {
	checkSystem(t, PaymentAudit(2), 1<<18)
}

func TestDiningPhilosophersSmall(t *testing.T) {
	checkSystem(t, DiningPhilosophers(3, true), 1<<18)
	checkSystem(t, DiningPhilosophers(3, false), 1<<18)
}

func TestPingPongSmall(t *testing.T) {
	checkSystem(t, PingPongPairs(2, false), 1<<18)
	checkSystem(t, PingPongPairs(2, true), 1<<18)
}

func TestRingSmall(t *testing.T) {
	checkSystem(t, Ring(4, 1), 1<<18)
	checkSystem(t, Ring(5, 2), 1<<18)
}

func TestSystemsAreWellFormed(t *testing.T) {
	for _, s := range []*System{
		PaymentAudit(2), DiningPhilosophers(3, true), PingPongPairs(2, true), Ring(4, 1),
	} {
		if err := types.CheckProcType(s.Env, s.Type); err != nil {
			t.Errorf("%s: not a π-type: %v", s.Name, err)
		}
		if err := types.CheckGuarded(s.Type); err != nil {
			t.Errorf("%s: unguarded: %v", s.Name, err)
		}
		if err := types.CheckFiniteControl(s.Type); err != nil {
			t.Errorf("%s: infinite control: %v", s.Name, err)
		}
	}
}

// TestFig9Matrix reproduces the complete true/false outcome matrix of
// Fig. 9 (19 systems × 6 properties) at the paper's sizes. Run with
// -timeout suitably large; skipped in -short mode.
func TestFig9Matrix(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig. 9 full matrix skipped in -short mode")
	}
	for _, s := range Fig9Systems() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			checkSystem(t, s, 1<<22)
		})
	}
}

// TestFig9MatrixParallelismInvariant re-runs the complete 19×6 matrix
// with the verification pipeline pinned to 2 and then 8 workers: every
// verdict must match Fig. 9 regardless of parallelism (the determinism
// guarantee of the parallel engine, observed at the top of the stack).
func TestFig9MatrixParallelismInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("parallelism sweep of the full matrix skipped in -short mode")
	}
	for _, par := range []int{2, 8} {
		for _, s := range Fig9Systems() {
			s, par := s, par
			t.Run(fmt.Sprintf("par=%d/%s", par, s.Name), func(t *testing.T) {
				checkSystemWith(t, s, verify.Options{MaxStates: 1 << 22, Parallelism: par})
			})
		}
	}
}

// TestLargeSystemsMatrix checks the beyond-Fig. 9 rows the parallel
// engine unlocks: all six properties must complete under the DEFAULT
// state bound (MaxStates 0) with verdicts consistent with the paper's
// property schemas. Skipped in -short mode — these are benchmark-sized.
func TestLargeSystemsMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("large instances skipped in -short mode")
	}
	for _, s := range LargeSystems() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			checkSystem(t, s, 0)
		})
	}
}
