package effpi

// This file regenerates the paper's evaluation (§5.2): one benchmark per
// Fig. 8 plot (runtime performance across engines) and one per Fig. 9 row
// group (type-level model-checking speed). Run with:
//
//	go test -bench=. -benchmem
//
// The full-size sweeps are elsewhere: cmd/savina drives Fig. 8's
// 10⁶-actor points, cmd/mcbench prints every Fig. 9 row's verdicts and
// perfbench times them. The bench sizes here are chosen so the whole
// suite completes in minutes while preserving the paper's comparisons
// (who wins, by what factor).

import (
	"testing"

	"effpi/internal/lts"
	"effpi/internal/mucalc"
	rt "effpi/internal/runtime"
	"effpi/internal/savina"
	"effpi/internal/systems"
	"effpi/internal/typelts"
	"effpi/internal/types"
	"effpi/internal/verify"
)

// --- Fig. 8: runtime benchmarks ---------------------------------------------

func engines() map[string]func() rt.Engine {
	return map[string]func() rt.Engine{
		"effpi-default": func() rt.Engine { return rt.NewScheduler(0, rt.PolicyDefault) },
		"effpi-fsm":     func() rt.Engine { return rt.NewScheduler(0, rt.PolicyChannelFSM) },
		"goroutine":     func() rt.Engine { return rt.NewGoEngine() },
	}
}

func benchSavina(b *testing.B, name string, size int) {
	bench, err := savina.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	for engName, mk := range engines() {
		b.Run(engName, func(b *testing.B) {
			e := mk()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bench.Run(e, size)
			}
		})
	}
}

func BenchmarkFig8Chameneos(b *testing.B)          { benchSavina(b, "chameneos", 1_000) }
func BenchmarkFig8Counting(b *testing.B)           { benchSavina(b, "counting", 100_000) }
func BenchmarkFig8ForkJoinCreate(b *testing.B)     { benchSavina(b, "fjc", 10_000) }
func BenchmarkFig8ForkJoinThroughput(b *testing.B) { benchSavina(b, "fjt", 100) }
func BenchmarkFig8PingPong(b *testing.B)           { benchSavina(b, "pingpong", 100) }
func BenchmarkFig8Ring(b *testing.B)               { benchSavina(b, "ring", 1_000) }
func BenchmarkFig8StreamingRing(b *testing.B)      { benchSavina(b, "streamring", 1_000) }

// --- Fig. 9: model-checking benchmarks ---------------------------------------

func benchFig9(b *testing.B, s *systems.System) {
	for _, prop := range s.Props {
		prop := prop
		b.Run(prop.Kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o, err := verify.Verify(verify.Request{Env: s.Env, Type: s.Type, Property: prop})
				if err != nil {
					b.Fatal(err)
				}
				if want, ok := s.Expected[prop.Kind]; ok && o.Holds != want {
					b.Fatalf("%s / %s: verdict %v, Fig. 9 says %v", s.Name, prop, o.Holds, want)
				}
			}
		})
	}
}

func BenchmarkFig9Payment8(b *testing.B)  { benchFig9(b, systems.PaymentAudit(8)) }
func BenchmarkFig9Payment12(b *testing.B) { benchFig9(b, systems.PaymentAudit(12)) }

func BenchmarkFig9Philosophers4Deadlock(b *testing.B) {
	benchFig9(b, systems.DiningPhilosophers(4, true))
}

func BenchmarkFig9Philosophers5NoDeadlock(b *testing.B) {
	benchFig9(b, systems.DiningPhilosophers(5, false))
}

func BenchmarkFig9PingPong6(b *testing.B) { benchFig9(b, systems.PingPongPairs(6, false)) }

func BenchmarkFig9PingPong6Responsive(b *testing.B) {
	benchFig9(b, systems.PingPongPairs(6, true))
}

func BenchmarkFig9Ring10(b *testing.B)        { benchFig9(b, systems.Ring(10, 1)) }
func BenchmarkFig9Ring10Tokens3(b *testing.B) { benchFig9(b, systems.Ring(10, 3)) }

// benchVerifyAll measures the production path: all six properties
// verified together, sharing one transition cache and the explored LTS
// (verify.VerifyAllWith), at the given batch executor width (0 =
// GOMAXPROCS, 1 = one exploration or check at a time).
func benchVerifyAll(b *testing.B, s *systems.System, parallelism int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		outcomes, err := verify.VerifyAllWith(s.Env, s.Type, s.Props, verify.Options{Parallelism: parallelism})
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range outcomes {
			if want, ok := s.Expected[o.Property.Kind]; ok && o.Holds != want {
				b.Fatalf("%s / %s: verdict %v, expected %v", s.Name, o.Property, o.Holds, want)
			}
		}
	}
}

// BenchmarkFig9VerifyAllPhilosophers5 runs at the default executor width
// (GOMAXPROCS); the Serial variant runs at width 1, so the pair isolates
// the speedup of the concurrent batch executor.
func BenchmarkFig9VerifyAllPhilosophers5(b *testing.B) {
	benchVerifyAll(b, systems.DiningPhilosophers(5, false), 0)
}

func BenchmarkFig9VerifyAllPhilosophers5Serial(b *testing.B) {
	benchVerifyAll(b, systems.DiningPhilosophers(5, false), 1)
}

// --- Beyond Fig. 9: larger instances -----------------------------------------
//
// These rows are benchmark-sized (the responsive 10-pair system explores
// ~59k states per observable group); they are skipped in -short mode so
// `go test -short -bench=.` stays quick; `mcbench -suite large` prints
// their verdicts.

func benchLarge(b *testing.B, s *systems.System, parallelism int) {
	if testing.Short() {
		b.Skip("large instance skipped in -short mode")
	}
	benchVerifyAll(b, s, parallelism)
}

// BenchmarkLargeVerifyAllPhilosophers7Serial and …Parallel compare batch
// executor widths only (1 against GOMAXPROCS): every exploration is serial
// at either width, so the pair measures how much running the row's
// explorations and checks side by side pays.
func BenchmarkLargeVerifyAllPhilosophers7Serial(b *testing.B) {
	benchLarge(b, systems.DiningPhilosophers(7, false), 1)
}

func BenchmarkLargeVerifyAllPhilosophers7Parallel(b *testing.B) {
	benchLarge(b, systems.DiningPhilosophers(7, false), 0)
}

// BenchmarkLargeVerifyAllPhilosophers8Serial and …Parallel compare batch
// executor widths only, like the Philosophers7 pair.
func BenchmarkLargeVerifyAllPhilosophers8Serial(b *testing.B) {
	benchLarge(b, systems.DiningPhilosophers(8, false), 1)
}

func BenchmarkLargeVerifyAllPhilosophers8Parallel(b *testing.B) {
	benchLarge(b, systems.DiningPhilosophers(8, false), 0)
}

func BenchmarkLargeVerifyAllRing16Tokens4Parallel(b *testing.B) {
	benchLarge(b, systems.Ring(16, 4), 0)
}

// --- Symmetry: exploration-time orbit collapsing -----------------------------
//
// The Serial/Symmetry pairs time the WHOLE VerifyAll pipeline: symmetry
// pays off during exploration itself:
// the n-pair ping-pong rows have 3^n concrete states but only
// 3·C(n+1, 2) orbit representatives (one pair pinned by the probe
// channels), so the Symmetry variants never materialise the exponential
// state space at all. PingPong-12 collapses 531 441 states to 234 —
// the acceptance pair behind the ≥5× target.

// benchSymmetryVerifyAll runs the full batch pipeline (exploration
// included, fresh cache per iteration) under the given symmetry mode,
// asserting every verdict against the row's expectations.
func benchSymmetryVerifyAll(b *testing.B, s *systems.System, sym verify.SymmetryMode) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		outs, err := verify.VerifyAllWith(s.Env, s.Type, s.Props, verify.Options{Symmetry: sym})
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range outs {
			if want, ok := s.Expected[o.Property.Kind]; ok && o.Holds != want {
				b.Fatalf("%s / %s: verdict %v, expected %v", s.Name, o.Property, o.Holds, want)
			}
		}
	}
}

func benchSymmetryVerifyAllLarge(b *testing.B, s *systems.System, sym verify.SymmetryMode) {
	if testing.Short() {
		b.Skip("large instance skipped in -short mode")
	}
	benchSymmetryVerifyAll(b, s, sym)
}

func BenchmarkSymmetryVerifyAllPingPong10Serial(b *testing.B) {
	benchSymmetryVerifyAll(b, systems.PingPongPairs(10, false), verify.SymmetryOff)
}

func BenchmarkSymmetryVerifyAllPingPong10Symmetry(b *testing.B) {
	benchSymmetryVerifyAll(b, systems.PingPongPairs(10, false), verify.SymmetryOn)
}

// The acceptance pair: all six Fig. 9 columns of the 531 441-state
// ping-pong sweep, end to end.
func BenchmarkSymmetryVerifyAllPingPong12Serial(b *testing.B) {
	benchSymmetryVerifyAllLarge(b, systems.PingPongPairs(12, false), verify.SymmetryOff)
}

func BenchmarkSymmetryVerifyAllPingPong12Symmetry(b *testing.B) {
	benchSymmetryVerifyAllLarge(b, systems.PingPongPairs(12, false), verify.SymmetryOn)
}

// benchSymmetryVerifyDining times a SINGLE property — deadlock-freedom
// of the 8-philosopher Dining ring — rather than the VerifyAll batch.
// The full six-property batch pins the union of its channels, f0 and
// f1, which freezes the ring (a rotation moves every fork), so only the
// per-property run shows the cyclic factor: deadlock-freedom observes
// no channels, the rotation group C_8 survives, and 6 560 concrete
// states collapse to 833 necklace representatives with the FAIL's
// witness rotated back and replayed concretely.
func benchSymmetryVerifyDining(b *testing.B, sym verify.SymmetryMode) {
	if testing.Short() {
		b.Skip("large instance skipped in -short mode")
	}
	s := systems.DiningPhilosophers(8, true)
	var prop verify.Property
	for _, p := range s.Props {
		if p.Kind == verify.DeadlockFree {
			prop = p
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o, err := verify.Verify(verify.Request{Env: s.Env, Type: s.Type, Property: prop,
			Options: verify.Options{Symmetry: sym}})
		if err != nil {
			b.Fatal(err)
		}
		if o.Holds {
			b.Fatal("deadlock variant verified deadlock-free")
		}
		if err := verify.Replay(o); err != nil {
			b.Fatalf("witness does not replay: %v", err)
		}
	}
}

func BenchmarkSymmetryVerifyDining8Serial(b *testing.B) {
	benchSymmetryVerifyDining(b, verify.SymmetryOff)
}

func BenchmarkSymmetryVerifyDining8Rotational(b *testing.B) {
	benchSymmetryVerifyDining(b, verify.SymmetryOn)
}

// --- Ablations: the design choices DESIGN.md calls out -----------------------

// BenchmarkAblationSubtype measures the coinductive subtype check on the
// recursive mobile-code type (memoised assume-on-revisit algorithm).
func BenchmarkAblationSubtype(b *testing.B) {
	env := types.EnvOf("x", types.ChanIO{Elem: types.Int{}})
	rec := types.Rec{Var: "t", Body: types.In{Ch: types.Var{Name: "x"},
		Cont: types.Pi{Var: "y", Dom: types.Int{},
			Cod: types.Out{Ch: types.Var{Name: "x"}, Payload: types.Var{Name: "y"},
				Cont: types.Thunk(types.RecVar{Name: "t"})}}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !types.Subtype(env, rec, types.Unfold(rec)) {
			b.Fatal("subtype failed")
		}
	}
}

// BenchmarkAblationExplore measures bare LTS exploration (no model
// checking) of the 5-philosopher system.
func BenchmarkAblationExplore(b *testing.B) {
	s := systems.DiningPhilosophers(5, false)
	sem := &typelts.Semantics{Env: s.Env, Observable: map[string]bool{}, WitnessOnly: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lts.Explore(sem, s.Type, lts.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBuchi measures the GPVW translation of the most
// complex Fig. 7 schema (responsiveness) in isolation.
func BenchmarkAblationBuchi(b *testing.B) {
	s := systems.PaymentAudit(4)
	sem := &typelts.Semantics{Env: s.Env, Observable: map[string]bool{}, WitnessOnly: true}
	m, err := lts.Explore(sem, s.Type, lts.Options{})
	if err != nil {
		b.Fatal(err)
	}
	phi, err := verify.Compile(s.Env, m, verify.Property{Kind: verify.Responsive, From: "m", Closed: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ba := mucalc.Translate(mucalc.Not{F: phi})
		if ba.Len() == 0 {
			b.Fatal("empty automaton")
		}
	}
}

// BenchmarkAblationSchedulerPolicies isolates the default-vs-FSM policy
// difference on a message-heavy two-process exchange.
func BenchmarkAblationSchedulerPolicies(b *testing.B) {
	for _, policy := range []rt.Policy{rt.PolicyDefault, rt.PolicyChannelFSM} {
		policy := policy
		b.Run(policy.String(), func(b *testing.B) {
			e := rt.NewScheduler(0, policy)
			for i := 0; i < b.N; i++ {
				savina.Counting(e, 10_000)
			}
		})
	}
}

// --- Partial order: exploration-time ample-set pruning -----------------------
//
// The Serial/POR pairs time the whole VerifyAll pipeline under
// partial-order reduction. The ping-pong pair is the showcase
// (independent pairs collapse 3^n interleavings into one near-linear
// corridor); the dining pairs are the negative result DESIGN.md §por
// documents: philosopher-to-philosopher token handover makes every
// adjacent pair dependent, so ample sets barely prune (~1.0×), and a
// full row's mixed group is explored once in full either way, so the
// mode must cost nothing there. The pairs keep both behaviours pinned:
// a regression in either direction (lost reduction on ping-pong,
// overhead on dining) shows up here.

// benchPORVerifyAll runs the full batch pipeline (exploration included,
// fresh cache per iteration) under the given partial-order mode,
// asserting every verdict against the row's expectations. With
// eligibleOnly the row is cut down to the POR-eligible columns
// (deadlock-free, no-usage, reactive), so the pair isolates the
// reduction instead of being dominated by the full explorations the
// ineligible schemas run either way.
func benchPORVerifyAll(b *testing.B, s *systems.System, por verify.PartialOrderMode, eligibleOnly bool) {
	props := s.Props
	if eligibleOnly {
		props = nil
		for _, p := range s.Props {
			switch p.Kind {
			case verify.DeadlockFree, verify.NonUsage, verify.Reactive:
				props = append(props, p)
			}
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		outs, err := verify.VerifyAllWith(s.Env, s.Type, props, verify.Options{PartialOrder: por})
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range outs {
			if want, ok := s.Expected[o.Property.Kind]; ok && o.Holds != want {
				b.Fatalf("%s / %s: verdict %v, expected %v", s.Name, o.Property, o.Holds, want)
			}
		}
	}
}

func benchPORVerifyAllLarge(b *testing.B, s *systems.System, por verify.PartialOrderMode, eligibleOnly bool) {
	if testing.Short() {
		b.Skip("large instance skipped in -short mode")
	}
	benchPORVerifyAll(b, s, por, eligibleOnly)
}

func BenchmarkPORVerifyAllPingPong10Serial(b *testing.B) {
	benchPORVerifyAll(b, systems.PingPongPairs(10, false), verify.PartialOrderOff, true)
}

func BenchmarkPORVerifyAllPingPong10POR(b *testing.B) {
	benchPORVerifyAll(b, systems.PingPongPairs(10, false), verify.PartialOrderOn, true)
}

func BenchmarkPORVerifyAllPhilosophers7Serial(b *testing.B) {
	benchPORVerifyAllLarge(b, systems.DiningPhilosophers(7, false), verify.PartialOrderOff, false)
}

func BenchmarkPORVerifyAllPhilosophers7POR(b *testing.B) {
	benchPORVerifyAllLarge(b, systems.DiningPhilosophers(7, false), verify.PartialOrderOn, false)
}

func BenchmarkPORVerifyAllPhilosophers8Serial(b *testing.B) {
	benchPORVerifyAllLarge(b, systems.DiningPhilosophers(8, false), verify.PartialOrderOff, false)
}

func BenchmarkPORVerifyAllPhilosophers8POR(b *testing.B) {
	benchPORVerifyAllLarge(b, systems.DiningPhilosophers(8, false), verify.PartialOrderOn, false)
}
