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
		base, baseErr := verify.VerifyAllWith(s.Env, s.Type, s.Props, verify.Options{MaxStates: genMaxStates, Parallelism: 1})
		var symBase []*verify.Outcome
		var symBaseErr error
		for _, par := range []int{1, 2, 8} {
			sym, err := verify.VerifyAllWith(s.Env, s.Type, s.Props, verify.Options{
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
					verify.Options{MaxStates: 1 << 22, Parallelism: par, Symmetry: verify.SymmetryOn})
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
		verify.Options{MaxStates: 1 << 22, Symmetry: verify.SymmetryOn})
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

// TestDiningSymmetryRatio pins the fallback on the fork ring. Dining(8,
// deadlock) detects no symmetry group, so a lone deadlock-freedom query
// (the one property that observes no fork) takes the no-group path
// under every setting that asks for symmetry: POR if requested,
// otherwise the full exploration. Its outcome must be byte-identical to
// the same query without symmetry, and the FAIL must replay.
func TestDiningSymmetryRatio(t *testing.T) {
	s := DiningPhilosophers(8, true)
	var prop verify.Property
	for _, p := range s.Props {
		if p.Kind == verify.DeadlockFree {
			prop = p
		}
	}
	settings := []struct {
		name string
		opts verify.Options
	}{
		{"symmetry", verify.Options{}},
		{"symmetry+por", verify.Options{PartialOrder: verify.PartialOrderOn}},
		{"early+symmetry", verify.Options{EarlyExit: true}},
	}
	for _, par := range []int{1, 2, 8} {
		for _, c := range settings {
			name, opts := c.name, c.opts
			opts.Parallelism = par
			off, err := verify.Verify(verify.Request{Env: s.Env, Type: s.Type, Property: prop, Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			opts.Symmetry = verify.SymmetryOn
			on, err := verify.Verify(verify.Request{Env: s.Env, Type: s.Type, Property: prop, Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			if on.Holds || on.Witness == nil {
				t.Fatalf("par=%d %s: deadlock variant without a FAIL witness", par, name)
			}
			if on.States != off.States || on.StatesExplored != off.StatesExplored || on.PartialOrder != off.PartialOrder {
				t.Errorf("par=%d %s: states %d/%d por=%v, want %d/%d por=%v as without symmetry", par, name,
					on.StatesExplored, on.States, on.PartialOrder, off.StatesExplored, off.States, off.PartialOrder)
			}
			if got, want := on.Witness.Render(0), off.Witness.Render(0); got != want {
				t.Errorf("par=%d %s: witness differs from the one without symmetry:\n%s\nwant:\n%s", par, name, got, want)
			}
			if err := verify.Replay(on); err != nil {
				t.Errorf("par=%d %s: witness does not replay: %v", par, name, err)
			}
		}
	}
}
