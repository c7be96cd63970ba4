package systems

import (
	"fmt"
	"reflect"
	"testing"

	"effpi/internal/lts"
	"effpi/internal/typelts"
	"effpi/internal/types"
	"effpi/internal/verify"
)

// The randomized differential suite: RandomSystem supplies the scenario
// diversity, the engines supply independent answers, and verify.Replay
// supplies the oracle for every negative verdict. genMaxStates bounds the
// occasional blow-up system; explorations that exceed it must do so
// identically in every engine.
const genMaxStates = 1 << 14

func genSeedCount(t *testing.T) int {
	if testing.Short() {
		return 40
	}
	return 200
}

// TestRandomSystemsWellFormedAndDeterministic: every generated system is
// admissible (guarded finite-control π-type), and the generator is a pure
// function of the seed.
func TestRandomSystemsWellFormedAndDeterministic(t *testing.T) {
	n := genSeedCount(t)
	for seed := 0; seed < n; seed++ {
		s := RandomSystem(int64(seed))
		if err := verify.Admissible(s.Env, s.Type); err != nil {
			t.Fatalf("seed %d: not admissible: %v", seed, err)
		}
		again := RandomSystem(int64(seed))
		if types.Canon(s.Type) != types.Canon(again.Type) {
			t.Fatalf("seed %d: generator is not deterministic", seed)
		}
		if len(s.Props) != 6 {
			t.Fatalf("seed %d: want 6 property instances, got %d", seed, len(s.Props))
		}
	}
}

// publicFingerprint renders the determinism-relevant content of an LTS
// through the public API: state order (canonical forms), alphabet order
// (label keys), and the per-state edge lists.
func publicFingerprint(m *lts.LTS) string {
	out := fmt.Sprintf("initial=%d truncated=%v\n", m.Initial, m.Truncated)
	for i := range m.Len() {
		out += fmt.Sprintf("S%d %s\n", i, types.Canon(m.StateType(i)))
	}
	for i, l := range m.Labels {
		out += fmt.Sprintf("L%d %s\n", i, l.Key())
	}
	for s := range m.Len() {
		for _, e := range m.Out(s) {
			out += fmt.Sprintf("e %d %d %d\n", s, e.Label, e.Dst)
		}
	}
	return out
}

// TestRandomDifferentialExplore: for every generated system, Explore and
// an Incremental expanded state by state in discovery order build the
// byte-identical LTS (state numbering, alphabet, edges), including
// identical truncation behaviour at the state bound.
func TestRandomDifferentialExplore(t *testing.T) {
	n := genSeedCount(t)
	for seed := 0; seed < n; seed++ {
		s := RandomSystem(int64(seed))
		sem := func() *typelts.Semantics {
			return &typelts.Semantics{Env: s.Env, Observable: map[string]bool{}, WitnessOnly: true}
		}
		opts := lts.Options{MaxStates: genMaxStates}
		full, fullErr := lts.Explore(sem(), s.Type, opts)
		inc := lts.NewIncremental(sem(), s.Type, opts)
		for st := 0; st < inc.Len() && inc.Err() == nil; st++ {
			inc.Succ(st)
		}
		if (inc.Err() == nil) != (fullErr == nil) {
			t.Fatalf("seed %d: incremental err=%v, Explore err=%v", seed, inc.Err(), fullErr)
		}
		if want, got := publicFingerprint(full), publicFingerprint(inc.Snapshot()); got != want {
			t.Fatalf("seed %d: incremental LTS differs from Explore's\n--- Explore ---\n%s--- incremental ---\n%s", seed, want, got)
		}
	}
}

// TestRandomDifferentialVerdictsAndWitnesses is the heart of the fuzz
// suite: for every generated system, VerifyAllWith at Parallelism 1, 2
// and 8 must agree on every verdict (and on every error), every FAIL of
// an LTL-checked property must carry a witness that verify.Replay
// validates, and the witnesses themselves must be identical across worker
// counts.
func TestRandomDifferentialVerdictsAndWitnesses(t *testing.T) {
	n := genSeedCount(t)
	fails, systems := 0, 0
	for seed := 0; seed < n; seed++ {
		s := RandomSystem(int64(seed))
		base, baseErr := verify.VerifyAllWith(s.Env, s.Type, s.Props, verify.Options{MaxStates: genMaxStates, Parallelism: 1})
		for _, par := range []int{2, 8} {
			got, err := verify.VerifyAllWith(s.Env, s.Type, s.Props, verify.Options{MaxStates: genMaxStates, Parallelism: par})
			if (err == nil) != (baseErr == nil) || (err != nil && err.Error() != baseErr.Error()) {
				t.Fatalf("seed %d par %d: err=%v, serial err=%v", seed, par, err, baseErr)
			}
			if len(got) != len(base) {
				t.Fatalf("seed %d par %d: %d outcomes vs %d serial", seed, par, len(got), len(base))
			}
			for i := range base {
				if got[i].Holds != base[i].Holds {
					t.Errorf("seed %d par %d %s: verdict %v, serial %v", seed, par, base[i].Property, got[i].Holds, base[i].Holds)
				}
				if got[i].States != base[i].States {
					t.Errorf("seed %d par %d %s: states %d, serial %d", seed, par, base[i].Property, got[i].States, base[i].States)
				}
				if !reflect.DeepEqual(rawWitness(got[i]), rawWitness(base[i])) {
					t.Errorf("seed %d par %d %s: witness differs from serial engine's", seed, par, base[i].Property)
				}
			}
		}
		if baseErr != nil {
			continue // bound exceeded identically everywhere: nothing to replay
		}
		systems++
		for _, o := range base {
			if o.Holds {
				continue
			}
			if o.Property.Kind == verify.EventualOutput {
				if o.Witness != nil {
					t.Errorf("seed %d %s: existential failure must not carry a witness", seed, o.Property)
				}
				continue
			}
			fails++
			if o.Witness == nil {
				t.Fatalf("seed %d %s: FAIL without witness", seed, o.Property)
			}
			if err := verify.Replay(o); err != nil {
				t.Errorf("seed %d %s: witness does not replay: %v", seed, o.Property, err)
			}
		}
	}
	if fails == 0 {
		t.Fatalf("generator produced no failing properties across %d verified systems — the witness oracle was never exercised", systems)
	}
	t.Logf("replayed %d failing properties across %d systems", fails, systems)
}

func rawWitness(o *verify.Outcome) interface{} {
	if o.Witness == nil {
		return nil
	}
	return o.Witness.Raw
}

// TestRandomEarlyExitAgreesWithFull: on-the-fly (early-exit) checking of
// the schemas that compile with no alphabet must reach the same verdict
// as the full explore-then-check pipeline on every generated system,
// never explore more states, and its witnesses must replay too.
func TestRandomEarlyExitAgreesWithFull(t *testing.T) {
	n := genSeedCount(t)
	for seed := 0; seed < n; seed++ {
		s := RandomSystem(int64(seed))
		for _, p := range s.Props {
			switch p.Kind {
			case verify.NonUsage, verify.DeadlockFree, verify.Reactive:
			default:
				continue
			}
			full, err := verify.Verify(verify.Request{Env: s.Env, Type: s.Type, Property: p, Options: verify.Options{MaxStates: genMaxStates, Parallelism: 1}})
			early, eerr := verify.Verify(verify.Request{Env: s.Env, Type: s.Type, Property: p, Options: verify.Options{MaxStates: genMaxStates, EarlyExit: true}})
			if (err == nil) != (eerr == nil) {
				t.Fatalf("seed %d %s: full err=%v, early err=%v", seed, p, err, eerr)
			}
			if err != nil {
				continue
			}
			if !early.EarlyExit {
				t.Fatalf("seed %d %s: early-exit request did not take the on-the-fly path", seed, p)
			}
			if early.Holds != full.Holds {
				t.Errorf("seed %d %s: early verdict %v, full %v", seed, p, early.Holds, full.Holds)
			}
			if early.States > full.States {
				t.Errorf("seed %d %s: early exit discovered %d states, full pipeline %d", seed, p, early.States, full.States)
			}
			if !early.Holds {
				if err := verify.Replay(early); err != nil {
					t.Errorf("seed %d %s: early-exit witness does not replay: %v", seed, p, err)
				}
			}
		}
	}
}
