package systems

import (
	"fmt"
	"reflect"
	"testing"

	"effpi/internal/types"
	"effpi/internal/verify"
)

// This file extends the randomized differential suite (gen_test.go) and
// the Fig. 9 acceptance matrix (systems_test.go) to the partial-order
// mode: exploring ample subsets of each state's transitions must be
// invisible in verdicts, deterministic at every worker count, and every
// FAIL's witness — a concrete run of the reduced edge-subset — must
// replay on the concrete semantics.

// hasPORFilter reports whether properties of kind k have a
// partial-order filter: the kinds whose formula compiles with no
// alphabet.
func hasPORFilter(k verify.Kind) bool {
	return k == verify.NonUsage || k == verify.DeadlockFree || k == verify.Reactive
}

// porBatch splits a row's properties for the partial-order suites: the
// POR-eligible ones — a batch POR serves, since all of them share one
// observable set — and their indexes in the row.
func porBatch(props []verify.Property) ([]verify.Property, []int) {
	var eligible []verify.Property
	var idx []int
	for i, p := range props {
		if hasPORFilter(p.Kind) {
			eligible = append(eligible, p)
			idx = append(idx, i)
		}
	}
	return eligible, idx
}

// outcomeKey is an outcome's verdict, state counts, reducer flag and raw
// witness lasso.
func outcomeKey(o *verify.Outcome) string {
	return fmt.Sprintf("%v|%d|%d|%v|%v", o.Holds, o.States, o.StatesExplored, o.PartialOrder, rawWitness(o))
}

// checkMixedUnreduced verifies a whole row — a mixed batch, whose one
// group has members POR cannot serve — with partial order on, and
// asserts that every outcome is byte-identical to the reducers-off one:
// the group is explored in full for everyone. The row's properties POR
// cannot serve, verified as a batch of their own, form groups with no
// eligible member, and their outcomes must equal the reducers-off ones
// too.
func checkMixedUnreduced(t *testing.T, name string, env *types.Env, sys types.Type, props []verify.Property, opts verify.Options, off []*verify.Outcome) {
	t.Helper()
	opts.PartialOrder = verify.PartialOrderOn
	mixed, err := verify.VerifyAllWith(env, sys, props, opts)
	if err != nil {
		t.Fatalf("%s mixed batch: %v", name, err)
	}
	var rest []verify.Property
	var idx []int
	for i, p := range props {
		if outcomeKey(mixed[i]) != outcomeKey(off[i]) {
			t.Errorf("%s %s: mixed-batch outcome %s differs from POR off %s", name, p, outcomeKey(mixed[i]), outcomeKey(off[i]))
		}
		if !hasPORFilter(p.Kind) {
			rest, idx = append(rest, p), append(idx, i)
		}
	}
	ineligible, err := verify.VerifyAllWith(env, sys, rest, opts)
	if err != nil {
		t.Fatalf("%s ineligible batch: %v", name, err)
	}
	for i, o := range ineligible {
		if outcomeKey(o) != outcomeKey(off[idx[i]]) {
			t.Errorf("%s %s: ineligible-batch outcome %s differs from POR off %s", name, o.Property, outcomeKey(o), outcomeKey(off[idx[i]]))
		}
	}
}

// TestRandomDifferentialPartialOrder: every seeded system's POR-eligible
// properties are verified as one batch with partial order on at
// parallelism 1, 2 and 8 and compared against the reference (the whole
// row, partial order off, serial). The reduced space is an edge-subset
// of the full one, so a run that exceeds the state bound under reduction
// must have exceeded it without; the reverse can differ, so
// bound-exceeding seeds are only checked for agreement on *whether* they
// error. The whole row with partial order on is a mixed batch and must
// reproduce the reference outcomes exactly.
func TestRandomDifferentialPartialOrder(t *testing.T) {
	n := genSeedCount(t)
	fails, engaged, systems := 0, 0, 0
	for seed := 0; seed < n; seed++ {
		s := RandomSystem(int64(seed))
		props, idx := porBatch(s.Props)
		base, baseErr := verify.VerifyAllWith(s.Env, s.Type, s.Props, verify.Options{MaxStates: genMaxStates, Parallelism: 1})
		var porBase []*verify.Outcome
		var porBaseErr error
		for _, par := range []int{1, 2, 8} {
			por, err := verify.VerifyAllWith(s.Env, s.Type, props, verify.Options{
				MaxStates: genMaxStates, Parallelism: par, PartialOrder: verify.PartialOrderOn})
			if par == 1 {
				porBase, porBaseErr = por, err
			}
			if (err == nil) != (porBaseErr == nil) || (err != nil && err.Error() != porBaseErr.Error()) {
				t.Fatalf("seed %d par %d: reduced err=%v, serial reduced err=%v", seed, par, err, porBaseErr)
			}
			if err != nil {
				// Ample sets only drop edges: if even the reduced batch
				// exceeded the bound, the reference batch must have too.
				if baseErr == nil {
					t.Fatalf("seed %d par %d: reduced run exceeded the bound but the full run did not: %v", seed, par, err)
				}
				break
			}
			for i := range por {
				if por[i].StatesExplored != porBase[i].StatesExplored {
					t.Errorf("seed %d par %d %s: explored %d states, serial reduced run explored %d",
						seed, par, por[i].Property, por[i].StatesExplored, porBase[i].StatesExplored)
				}
				if !reflect.DeepEqual(rawWitness(por[i]), rawWitness(porBase[i])) {
					t.Errorf("seed %d par %d %s: reduced witness differs from the serial reduced run's", seed, par, por[i].Property)
				}
				if por[i].PartialOrder && publicFingerprint(por[i].LTS) != publicFingerprint(porBase[i].LTS) {
					t.Errorf("seed %d par %d %s: reduced LTS is not byte-identical to the serial reduced run's", seed, par, por[i].Property)
				}
				if baseErr != nil {
					continue // no reference verdicts to compare against
				}
				ref := base[idx[i]]
				if por[i].Holds != ref.Holds {
					t.Errorf("seed %d par %d %s: reduced verdict %v, reference %v", seed, par, por[i].Property, por[i].Holds, ref.Holds)
				}
				if por[i].StatesExplored > ref.States {
					t.Errorf("seed %d par %d %s: explored %d states, full space has %d",
						seed, par, por[i].Property, por[i].StatesExplored, ref.States)
				}
				if !por[i].PartialOrder && por[i].States != ref.States {
					t.Errorf("seed %d par %d %s: disengaged mode changed States %d -> %d",
						seed, par, por[i].Property, ref.States, por[i].States)
				}
			}
		}
		if porBaseErr != nil || baseErr != nil {
			continue
		}
		checkMixedUnreduced(t, fmt.Sprintf("seed %d", seed), s.Env, s.Type, s.Props, verify.Options{MaxStates: genMaxStates, Parallelism: 1}, base)
		systems++
		for i, o := range porBase {
			if o.PartialOrder && o.StatesExplored < base[idx[i]].States {
				engaged++
			}
			if o.Holds || !o.PartialOrder {
				continue
			}
			fails++
			if o.Witness == nil {
				t.Fatalf("seed %d %s: reduced FAIL without witness", seed, o.Property)
			}
			if err := verify.Replay(o); err != nil {
				t.Errorf("seed %d %s: reduced witness does not replay: %v", seed, o.Property, err)
			}
		}
	}
	if engaged == 0 {
		t.Fatalf("no property explored fewer states across %d systems — partial order never engaged", systems)
	}
	if fails == 0 {
		t.Fatalf("no reduced failing properties across %d systems — the replay route was never exercised", systems)
	}
	t.Logf("replayed %d reduced witnesses, %d reduced cells, across %d systems", fails, engaged, systems)
}

// TestFig9MatrixPartialOrder is the acceptance gate of the partial-order
// mode: every row's POR-eligible properties, re-verified as one batch on
// ample subsets at 1, 2 and 8 workers, must reproduce their Fig. 9
// verdicts, never explore more states than the concrete space, actually
// shrink the loosely-coupled families (ping-pong, ring), and validate
// every failing property's witness through the replay oracle. The whole
// row with partial order on is a mixed batch and must reproduce the
// reference outcomes exactly. Dining-shaped rows keep ample sets close
// to full (their conflict graph is one connected ring — see DESIGN.md
// §por), so the matrix asserts they do not *grow*, not that they shrink.
func TestFig9MatrixPartialOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("partial-order sweep of the full matrix skipped in -short mode")
	}
	reduced, replayed := 0, 0
	for _, s := range Fig9Systems() {
		base, err := verify.VerifyAllWith(s.Env, s.Type, s.Props, verify.Options{MaxStates: 1 << 22, Parallelism: 1})
		if err != nil {
			t.Fatalf("%s reference: %v", s.Name, err)
		}
		props, idx := porBatch(s.Props)
		for _, par := range []int{1, 2, 8} {
			s, par, base := s, par, base
			t.Run(fmt.Sprintf("par=%d/%s", par, s.Name), func(t *testing.T) {
				outcomes, err := verify.VerifyAllWith(s.Env, s.Type, props,
					verify.Options{MaxStates: 1 << 22, Parallelism: par, PartialOrder: verify.PartialOrderOn})
				if err != nil {
					t.Fatalf("%s: %v", s.Name, err)
				}
				for i, o := range outcomes {
					ref := base[idx[i]]
					if want, ok := s.Expected[o.Property.Kind]; ok && o.Holds != want {
						t.Errorf("%s / %s: reduced verdict %v, Fig. 9 says %v (explored %d of %d states)",
							s.Name, o.Property, o.Holds, want, o.StatesExplored, ref.States)
					}
					if o.StatesExplored > ref.States {
						t.Errorf("%s / %s: explored %d states, full space has %d", s.Name, o.Property, o.StatesExplored, ref.States)
					}
					if o.StatesExplored < ref.States {
						reduced++
					}
					if o.Holds || !o.PartialOrder {
						continue
					}
					if err := verify.Replay(o); err != nil {
						t.Errorf("%s / %s: reduced witness does not replay: %v", s.Name, o.Property, err)
					}
					replayed++
				}
				checkMixedUnreduced(t, s.Name, s.Env, s.Type, s.Props, verify.Options{MaxStates: 1 << 22, Parallelism: par}, base)
			})
		}
	}
	if reduced == 0 {
		t.Error("no Fig. 9 cell explored fewer states than the concrete space — partial order never engaged")
	}
	if replayed == 0 {
		t.Error("no failing property was replayed — the matrix exercised no reduced witness")
	}
	t.Logf("reduced %d (system, property) cells, replayed %d reduced witnesses", reduced, replayed)
}

// TestPartialOrderRatios pins the quantitative behaviour of the mode on
// the structural extremes, measured at the public API. Ping-pong pairs
// have a conflict graph that falls apart into independent clusters, so
// the ample exploration collapses the 3^n interleaving product to a
// near-linear corridor; the token ring keeps one cluster per token; and
// the dining table — whose philosopher-to-philosopher token handover
// couples every neighbour pair — is the documented negative result: the
// reduction is in edges, not states (see DESIGN.md §por), so the pin is
// "no worse", not "smaller".
func TestPartialOrderRatios(t *testing.T) {
	if testing.Short() {
		t.Skip("full-space reference explorations skipped in -short mode")
	}
	for _, tc := range []struct {
		sys      *System
		kind     verify.Kind
		explored int
		full     int
	}{
		// 3^12 = 531441 concrete states collapse to a 25-state corridor.
		{PingPongPairs(12, false), verify.DeadlockFree, 25, 531441},
		// One cluster per token: 7280 states down 34.8×.
		{Ring(16, 4), verify.DeadlockFree, 209, 7280},
		// Reactive carries an eventuality: the strong cycle proviso still
		// leaves a 75× reduction on the ring.
		{Ring(16, 4), verify.Reactive, 97, 7280},
		// The negative result: 3^8 = 6561 states, ample sets near-full.
		{DiningPhilosophers(8, false), verify.DeadlockFree, 6559, 6561},
	} {
		var prop *verify.Property
		for i := range tc.sys.Props {
			if tc.sys.Props[i].Kind == tc.kind {
				prop = &tc.sys.Props[i]
				break
			}
		}
		if prop == nil {
			t.Fatalf("%s: no %v property wired", tc.sys.Name, tc.kind)
		}
		full, err := verify.Verify(verify.Request{Env: tc.sys.Env, Type: tc.sys.Type, Property: *prop, Options: verify.Options{MaxStates: 1 << 22}})
		if err != nil {
			t.Fatalf("%s / %v full: %v", tc.sys.Name, tc.kind, err)
		}
		if full.States != tc.full {
			t.Errorf("%s / %v: full space has %d states, want %d", tc.sys.Name, tc.kind, full.States, tc.full)
		}
		red, err := verify.Verify(verify.Request{Env: tc.sys.Env, Type: tc.sys.Type, Property: *prop,
			Options: verify.Options{MaxStates: 1 << 22, PartialOrder: verify.PartialOrderOn}})
		if err != nil {
			t.Fatalf("%s / %v reduced: %v", tc.sys.Name, tc.kind, err)
		}
		if !red.PartialOrder {
			t.Errorf("%s / %v: PartialOrder did not engage", tc.sys.Name, tc.kind)
		}
		if red.Holds != full.Holds {
			t.Errorf("%s / %v: reduced verdict %v, reference %v", tc.sys.Name, tc.kind, red.Holds, full.Holds)
		}
		if red.StatesExplored != tc.explored {
			t.Errorf("%s / %v: explored %d states, want %d (%.1f×)",
				tc.sys.Name, tc.kind, red.StatesExplored, tc.explored, float64(tc.full)/float64(tc.explored))
		}
	}
}
