package types_test

// External test package: the fixtures come from package systems, which
// imports types, so the tests live outside the package to avoid a cycle.

import (
	"sync"
	"testing"

	"effpi/internal/systems"
	"effpi/internal/typelts"
	"effpi/internal/types"
)

// fixtureTypes collects a corpus of types exercising every constructor:
// the Fig. 9 benchmark compositions, their parallel components, and a
// bounded crawl of their transition successors (which is exactly the
// population the exploration hot path interns).
func fixtureTypes() []types.Type {
	var all []types.Type
	add := func(t types.Type) {
		all = append(all, t)
		all = append(all, types.FlattenPar(t)...)
	}
	for _, s := range []*systems.System{
		systems.PaymentAudit(2),
		systems.DiningPhilosophers(3, true),
		systems.DiningPhilosophers(3, false),
		systems.PingPongPairs(2, true),
		systems.Ring(4, 1),
	} {
		add(s.Type)
		sem := &typelts.Semantics{Env: s.Env, Observable: map[string]bool{}, WitnessOnly: true}
		frontier := []types.Type{s.Type}
		for depth := 0; depth < 3 && len(all) < 400; depth++ {
			var next []types.Type
			for _, t := range frontier {
				for _, st := range sem.Transitions(t) {
					add(st.Next)
					next = append(next, st.Next)
				}
			}
			frontier = next
		}
	}
	// A few hand-picked shapes the crawl may miss: unions, nested pars,
	// duplicate union branches, thunks, base types.
	x := types.Var{Name: "x"}
	add(types.Union{L: types.Bool{}, R: types.Int{}})
	add(types.Union{L: types.Int{}, R: types.Bool{}})
	add(types.Union{L: types.Bool{}, R: types.Bool{}})
	add(types.Bool{})
	add(types.Par{L: types.Nil{}, R: types.Par{L: types.Nil{}, R: types.Nil{}}})
	add(types.Nil{})
	add(types.Pi{Var: "a", Dom: types.Int{}, Cod: types.Var{Name: "a"}})
	add(types.Pi{Var: "b", Dom: types.Int{}, Cod: types.Var{Name: "b"}})
	add(types.Pi{Var: "a", Dom: types.Int{}, Cod: x})
	add(types.Thunk(types.Nil{}))
	add(types.Rec{Var: "t", Body: types.Out{Ch: x, Payload: types.Int{}, Cont: types.Thunk(types.RecVar{Name: "t"})}})
	add(types.Rec{Var: "u", Body: types.Out{Ch: x, Payload: types.Int{}, Cont: types.Thunk(types.RecVar{Name: "u"})}})
	add(types.ChanIO{Elem: types.Top{}})
	add(types.ChanI{Elem: types.Bottom{}})
	add(types.ChanO{Elem: types.Str{}})
	add(types.Proc{})
	return all
}

// TestInternMatchesCanon is the soundness/completeness property of the
// interner: Intern(t) == Intern(u) iff Canon(t) == Canon(u), across all
// pairs of the fixture corpus.
func TestInternMatchesCanon(t *testing.T) {
	fixtures := fixtureTypes()
	if len(fixtures) < 100 {
		t.Fatalf("fixture corpus too small (%d): the crawl broke", len(fixtures))
	}
	in := types.NewInterner()
	ids := make([]types.ID, len(fixtures))
	canons := make([]string, len(fixtures))
	for i, f := range fixtures {
		ids[i] = in.Intern(f)
		canons[i] = types.Canon(f)
	}
	for i := range fixtures {
		for j := i + 1; j < len(fixtures); j++ {
			sameID := ids[i] == ids[j]
			sameCanon := canons[i] == canons[j]
			if sameID != sameCanon {
				t.Fatalf("Intern/Canon disagree:\n  %s (id %d, canon %q)\n  %s (id %d, canon %q)",
					fixtures[i], ids[i], canons[i], fixtures[j], ids[j], canons[j])
			}
		}
	}
	// Interning is stable: a second pass yields the same IDs.
	for i, f := range fixtures {
		if got := in.Intern(f); got != ids[i] {
			t.Fatalf("Intern(%s) unstable: %d then %d", f, ids[i], got)
		}
	}
}

// TestInternParMatchesIntern: building a state ID from interned
// components (the Explore fast path) agrees with interning the composed
// type tree.
func TestInternParMatchesIntern(t *testing.T) {
	in := types.NewInterner()
	for _, f := range fixtureTypes() {
		leaves := types.FlattenPar(f)
		ids := make([]types.ID, len(leaves))
		for i, l := range leaves {
			ids[i] = in.Intern(l)
		}
		if got, want := in.InternPar(ids), in.Intern(f); got != want {
			t.Fatalf("InternPar(%s) = %d, Intern = %d", f, got, want)
		}
	}
}

// TestInternParRepresentative: representatives of InternPar-minted IDs
// are ≡ to the composition they stand for.
func TestInternParRepresentative(t *testing.T) {
	in := types.NewInterner()
	x := types.Var{Name: "x"}
	a := types.Out{Ch: x, Payload: types.Int{}, Cont: types.Thunk(types.Nil{})}
	b := types.In{Ch: x, Cont: types.Pi{Var: "v", Dom: types.Int{}, Cod: types.Nil{}}}
	ids := []types.ID{in.Intern(a), in.Intern(b)}
	id := in.InternPar(ids)
	rep := in.TypeOf(id)
	if !types.Equal(rep, types.Par{L: a, R: b}) {
		t.Fatalf("representative %s is not ≡ to the composition", rep)
	}
}

// TestConcurrentIntern hammers one interner from many goroutines; run
// under -race it exercises the interner's locking (the CI workflow does).
// Consistency is checked by comparing every goroutine's IDs against a
// sequential reference pass.
func TestConcurrentIntern(t *testing.T) {
	fixtures := fixtureTypes()
	in := types.NewInterner()
	ref := make([]types.ID, len(fixtures))
	for i, f := range fixtures {
		ref[i] = in.Intern(f)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range fixtures {
					// Stagger start points so goroutines collide on
					// different entries.
					i = (i + w*len(fixtures)/workers) % len(fixtures)
					if got := in.Intern(fixtures[i]); got != ref[i] {
						select {
						case errs <- fixtures[i].String():
						default:
						}
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if bad, ok := <-errs; ok {
		t.Fatalf("concurrent Intern diverged from sequential IDs on %s", bad)
	}
}
