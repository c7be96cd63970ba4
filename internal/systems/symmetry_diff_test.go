package systems

import (
	"fmt"
	"reflect"
	"testing"

	"effpi/internal/verify"
)

// This file extends the randomized differential suite (gen_test.go) and
// the Fig. 9 acceptance matrix (systems_test.go) to the symmetry mode:
// exploration on orbit representatives must be invisible in verdicts and
// in the concrete-equivalent States count, deterministic at every worker
// count, and every FAIL's permutation-lifted witness must replay on the
// concrete semantics.

// TestRandomDifferentialSymmetry: every seeded system is verified with
// symmetry on at parallelism 1, 2 and 8 and compared against the
// reference (symmetry off, serial). Most random systems have no
// non-trivial bundle symmetry — the mode must then be an exact no-op
// (explored == states) — while the occasional twin-component seed
// exercises real orbit collapsing. Orbit exploration can only shrink
// the state space, so a truncated reference run may succeed under
// symmetry, but never the reverse.
func TestRandomDifferentialSymmetry(t *testing.T) {
	n := genSeedCount(t)
	fails, systems := 0, 0
	for seed := 0; seed < n; seed++ {
		s := RandomSystem(int64(seed))
		base, baseErr := verify.VerifyAllWith(s.Env, s.Type, s.Props, verify.AllOptions{MaxStates: genMaxStates, Parallelism: 1})
		var symBase []*verify.Outcome
		var symBaseErr error
		for _, par := range []int{1, 2, 8} {
			sym, err := verify.VerifyAllWith(s.Env, s.Type, s.Props, verify.AllOptions{
				MaxStates: genMaxStates, Parallelism: par, Symmetry: verify.SymmetryOn})
			if par == 1 {
				symBase, symBaseErr = sym, err
			}
			if (err == nil) != (symBaseErr == nil) || (err != nil && err.Error() != symBaseErr.Error()) {
				t.Fatalf("seed %d par %d: symmetric err=%v, serial symmetric err=%v", seed, par, err, symBaseErr)
			}
			if err != nil {
				// The orbit space is a quotient of the concrete one: if even
				// it exceeds the bound, the reference run must have too.
				if baseErr == nil {
					t.Fatalf("seed %d par %d: symmetric run exceeded the bound but the concrete run did not: %v", seed, par, err)
				}
				break
			}
			for i := range sym {
				if sym[i].StatesExplored > sym[i].States {
					t.Errorf("seed %d par %d %s: explored %d orbit states, claims only %d concrete ones covered",
						seed, par, sym[i].Property, sym[i].StatesExplored, sym[i].States)
				}
				if sym[i].StatesExplored != symBase[i].StatesExplored {
					t.Errorf("seed %d par %d %s: explored %d states, serial symmetric run explored %d",
						seed, par, sym[i].Property, sym[i].StatesExplored, symBase[i].StatesExplored)
				}
				if !reflect.DeepEqual(rawWitness(sym[i]), rawWitness(symBase[i])) {
					t.Errorf("seed %d par %d %s: lifted witness differs from the serial symmetric run's", seed, par, sym[i].Property)
				}
				if baseErr != nil {
					continue // no reference verdicts to compare against
				}
				if sym[i].Holds != base[i].Holds {
					t.Errorf("seed %d par %d %s: symmetric verdict %v, reference %v", seed, par, sym[i].Property, sym[i].Holds, base[i].Holds)
				}
				if sym[i].States != base[i].States {
					t.Errorf("seed %d par %d %s: symmetric States %d, reference %d", seed, par, sym[i].Property, sym[i].States, base[i].States)
				}
			}
		}
		if symBaseErr != nil {
			continue
		}
		systems++
		for _, o := range symBase {
			if o.Holds || o.Property.Kind == verify.EventualOutput {
				continue
			}
			fails++
			if o.Witness == nil {
				t.Fatalf("seed %d %s: symmetric FAIL without witness", seed, o.Property)
			}
			if err := verify.Replay(o); err != nil {
				t.Errorf("seed %d %s: symmetric witness does not replay: %v", seed, o.Property, err)
			}
		}
	}
	if fails == 0 {
		t.Fatalf("no failing properties across %d symmetric systems — the permutation lift was never exercised", systems)
	}
	t.Logf("replayed %d symmetric witnesses across %d systems", fails, systems)
}

// TestFig9MatrixSymmetry is the acceptance gate of the symmetry mode:
// the complete 19×6 matrix re-verified on orbit representatives at 1, 2
// and 8 workers must reproduce every Fig. 9 verdict with the published
// concrete state counts, the ping-pong families (interchangeable pairs)
// must actually collapse, the asymmetric families must be exact no-ops,
// and every failing LTL property must carry a lifted witness the replay
// oracle validates.
func TestFig9MatrixSymmetry(t *testing.T) {
	if testing.Short() {
		t.Skip("symmetry sweep of the full matrix skipped in -short mode")
	}
	collapsed, replayed := 0, 0
	for _, par := range []int{1, 2, 8} {
		for _, s := range Fig9Systems() {
			s, par := s, par
			t.Run(fmt.Sprintf("par=%d/%s", par, s.Name), func(t *testing.T) {
				outcomes, err := verify.VerifyAllWith(s.Env, s.Type, s.Props,
					verify.AllOptions{MaxStates: 1 << 22, Parallelism: par, Symmetry: verify.SymmetryOn})
				if err != nil {
					t.Fatalf("%s: %v", s.Name, err)
				}
				for _, o := range outcomes {
					if want, ok := s.Expected[o.Property.Kind]; ok && o.Holds != want {
						t.Errorf("%s / %s: symmetric verdict %v, Fig. 9 says %v (explored %d of %d states)",
							s.Name, o.Property, o.Holds, want, o.StatesExplored, o.States)
					}
					if o.StatesExplored > o.States {
						t.Errorf("%s / %s: explored %d orbit states, covers only %d", s.Name, o.Property, o.StatesExplored, o.States)
					}
					if o.StatesExplored < o.States {
						collapsed++
					}
					if o.Holds || o.Property.Kind == verify.EventualOutput {
						continue
					}
					if err := verify.Replay(o); err != nil {
						t.Errorf("%s / %s: symmetric witness does not replay: %v", s.Name, o.Property, err)
					}
					replayed++
				}
			})
		}
	}
	if collapsed == 0 {
		t.Error("no Fig. 9 row explored fewer states than the concrete space — symmetry never engaged")
	}
	if replayed == 0 {
		t.Error("no failing property was replayed — the matrix exercised no witness lift")
	}
	t.Logf("collapsed %d (system, property) cells, replayed %d symmetric witnesses", collapsed, replayed)
}

// TestPingPongSymmetryRatio pins the quantitative claim behind the
// symmetry mode: the n-pair ping-pong state space is 3^n (each pair
// independently in one of three phases), and the orbit space collapses
// interchangeable pairs to phase *counts* — exactly 3·C(n+1, 2) orbit
// states with one request/reply pair pinned by the properties. For
// n = 10 that is 165 representatives covering 59 049 concrete states, a
// 357× reduction measured at the public API.
func TestPingPongSymmetryRatio(t *testing.T) {
	s := PingPongPairs(10, false)
	outcomes, err := verify.VerifyAllWith(s.Env, s.Type, s.Props,
		verify.AllOptions{MaxStates: 1 << 22, Symmetry: verify.SymmetryOn})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		if o.States != 59049 {
			t.Errorf("%s: States = %d, want 3^10 = 59049", o.Property, o.States)
		}
		if o.StatesExplored != 165 {
			t.Errorf("%s: explored %d orbit states, want 3·C(11,2) = 165", o.Property, o.StatesExplored)
		}
	}
}

// TestDiningSymmetryRatio pins the rotational-symmetry claim on the
// fork ring. Deadlock-freedom observes no channel, so the full cyclic
// group C_n survives pinning and the quotient explores fork-ring
// necklaces: Burnside counts (1/8)·Σ_{d|8} φ(d)·3^(8/d) = 834 necklaces
// of 8 beads over 3 symbols, and the one rotation-invariant
// configuration the deadlock variant never reaches (its concrete space
// is 3^8 − 1 = 6 560) is a one-element orbit, leaving exactly 833
// representatives — a 7.9× reduction, and the FAIL's lifted witness
// must still replay concretely. Verified per property rather than via
// VerifyAll: the full six-property batch pins the union of its
// channels, f0 and f1, which freezes the ring (a rotation
// moves every fork), so the batch stays concrete by design.
func TestDiningSymmetryRatio(t *testing.T) {
	s := DiningPhilosophers(8, true)
	var prop verify.Property
	for _, p := range s.Props {
		if p.Kind == verify.DeadlockFree {
			prop = p
		}
	}
	for _, par := range []int{1, 2, 8} {
		o, err := verify.Verify(verify.Request{Env: s.Env, Type: s.Type, Property: prop,
			Parallelism: par, Symmetry: verify.SymmetryOn})
		if err != nil {
			t.Fatal(err)
		}
		if o.Holds {
			t.Fatalf("par=%d: deadlock variant verified deadlock-free", par)
		}
		if o.States != 6560 {
			t.Errorf("par=%d: States = %d, want 3^8 − 1 = 6560", par, o.States)
		}
		if o.StatesExplored != 833 {
			t.Errorf("par=%d: explored %d orbit states, want 833 necklaces", par, o.StatesExplored)
		}
		if o.Witness == nil {
			t.Fatalf("par=%d: rotational FAIL without lifted witness", par)
		}
		if err := verify.Replay(o); err != nil {
			t.Errorf("par=%d: lifted witness does not replay: %v", par, err)
		}
	}

	// The symmetry-broken variant must stay an exact no-op: its
	// co-mention graph is the same cycle, but philosopher 0's swapped
	// fork order has no rotated twin, so detection declines.
	fixed := DiningPhilosophers(8, false)
	for _, p := range fixed.Props {
		if p.Kind == verify.DeadlockFree {
			prop = p
		}
	}
	o, err := verify.Verify(verify.Request{Env: fixed.Env, Type: fixed.Type, Property: prop,
		Symmetry: verify.SymmetryOn})
	if err != nil {
		t.Fatal(err)
	}
	if !o.Holds {
		t.Error("fixed variant must be deadlock-free")
	}
	if o.StatesExplored != o.States || o.States != 6561 {
		t.Errorf("fixed variant: explored %d of %d states, want exact no-op on 3^8 = 6561", o.StatesExplored, o.States)
	}
}

// TestDiningTenRotational is the headline scaling row: ten philosophers
// verify their deadlock-freedom column on 5 933 necklace
// representatives in place of 59 048 concrete states (9.95×, the
// asymptotic n× of C_n), with the lifted witness replaying.
func TestDiningTenRotational(t *testing.T) {
	if testing.Short() {
		t.Skip("Dining(10) rotational row skipped in -short mode")
	}
	s := DiningPhilosophers(10, true)
	var prop verify.Property
	for _, p := range s.Props {
		if p.Kind == verify.DeadlockFree {
			prop = p
		}
	}
	o, err := verify.Verify(verify.Request{Env: s.Env, Type: s.Type, Property: prop,
		Symmetry: verify.SymmetryOn})
	if err != nil {
		t.Fatal(err)
	}
	if o.Holds {
		t.Fatal("deadlock variant verified deadlock-free")
	}
	if o.States != 59048 {
		t.Errorf("States = %d, want 3^10 − 1 = 59048", o.States)
	}
	if o.StatesExplored != 5933 {
		t.Errorf("explored %d orbit states, want 5 933 necklaces", o.StatesExplored)
	}
	if err := verify.Replay(o); err != nil {
		t.Errorf("lifted witness does not replay: %v", err)
	}
}
