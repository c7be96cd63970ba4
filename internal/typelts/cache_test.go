package typelts

import (
	"fmt"
	"sync"
	"testing"

	"effpi/internal/types"
)

// stepFingerprint renders a CompStep list positionally: label keys and
// successor component IDs. Equal fingerprints mean equal content in
// equal order.
func stepFingerprint(cs []CompStep) string {
	out := ""
	for _, st := range cs {
		out += fmt.Sprintf("%s %v;", st.Label.Key(), st.Next)
	}
	return out
}

// TestCacheConcurrentComponentSteps hammers one shared Cache from many
// Semantics concurrently, one per goroutine — ComponentSteps, SyncSteps and
// Transitions over the same component set — and checks every goroutine
// observes exactly the content a fresh serial semantics computes. Run
// under -race this is the correctness test of the lock-striped shards.
func TestCacheConcurrentComponentSteps(t *testing.T) {
	env := pingPongEnv()
	comps := types.FlattenPar(pingPongType().(types.Par))

	// Serial reference: fresh cache, single goroutine.
	ref := &Semantics{Env: env, WitnessOnly: true, Cache: NewCache(env, true)}
	refIDs := make([]types.ID, len(comps))
	for i, c := range comps {
		refIDs[i] = ref.Cache.Interner().Intern(c)
	}
	wantComp := make([]string, len(refIDs))
	for i, id := range refIDs {
		wantComp[i] = stepFingerprint(ref.ComponentSteps(id))
	}
	wantSync := stepFingerprint(ref.SyncSteps(refIDs[0], refIDs[1]))

	// Concurrent run: one shared cache, one Semantics per goroutine,
	// repeated lookups.
	shared := NewCache(env, true)
	ids := make([]types.ID, len(comps))
	for i, c := range comps {
		ids[i] = shared.Interner().Intern(c)
	}
	const goroutines = 16
	const rounds = 50
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		ws := &Semantics{Env: env, WitnessOnly: true, Cache: shared}
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, id := range ids {
					if got := stepFingerprint(ws.ComponentSteps(id)); got != wantComp[i] {
						errs[g] = fmt.Errorf("component %d: got %q, want %q", i, got, wantComp[i])
						return
					}
				}
				if got := stepFingerprint(ws.SyncSteps(ids[0], ids[1])); got != wantSync {
					errs[g] = fmt.Errorf("sync: got %q, want %q", got, wantSync)
					return
				}
				// Transitions exercises the steps/match shards.
				ws.Transitions(pingPongType())
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// TestCacheFirstWriteWins checks that all goroutines racing to compute
// one entry end up sharing the same published slice (entries are
// immutable and adopted from the winner), so downstream consumers can
// compare and index them without synchronisation.
func TestCacheFirstWriteWins(t *testing.T) {
	env := pingPongEnv()
	shared := NewCache(env, true)
	id := shared.Interner().Intern(types.FlattenPar(pingPongType().(types.Par))[0])

	const goroutines = 16
	got := make([][]CompStep, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		ws := &Semantics{Env: env, WitnessOnly: true, Cache: shared}
		go func(g int) {
			defer wg.Done()
			got[g] = ws.ComponentSteps(id)
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if len(got[g]) != len(got[0]) {
			t.Fatalf("goroutine %d saw %d steps, goroutine 0 saw %d", g, len(got[g]), len(got[0]))
		}
		if len(got[g]) > 0 && &got[g][0] != &got[0][0] {
			t.Errorf("goroutine %d received a different slice than goroutine 0: racing computations must adopt the first published entry", g)
		}
	}
}
