package lts_test

import (
	"testing"

	"effpi/internal/lts"
	"effpi/internal/systems"
	"effpi/internal/typelts"
	"effpi/internal/types"
)

// pairCounts tallies, over every state of an exploration, the ordered
// pairs (i, j), i ≠ j, of component positions: all of them, those where
// i has an output and j an input, those the port filter keeps
// (typelts.MaySync), and those with at least one synchronisation.
type pairCounts struct {
	ordered, outIn, kept, hits int
}

// Bits of a pair's verdicts in checkPairs' dense table.
const (
	pairSeen = 1 << iota
	pairOutIn
	pairKept
	pairHit
)

// checkPairs explores s the way the verifier does (closed: no
// observable channel) and checks the port filter against SyncSteps on
// every ordered pair of components co-occurring in a state: a pair with
// a step must be kept (soundness). With exact set, a kept pair must
// also have a step (the filter is exact on the row).
func checkPairs(t *testing.T, s *systems.System, exact bool) pairCounts {
	t.Helper()
	sem := closedSem(s)
	m, err := lts.Explore(sem, s.Type, lts.Options{})
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	in := sem.Cache.Interner()
	// Number the components densely, so each pair's verdicts are
	// computed once and the per-state sweep reads a table.
	dense := map[types.ID]int{}
	var comps []*typelts.Component
	stateComps := make([][]int32, m.Len())
	for k := range m.Len() {
		for _, id := range m.StateComps(k) {
			d, ok := dense[id]
			if !ok {
				d = len(comps)
				dense[id] = d
				comps = append(comps, sem.Component(id))
			}
			stateComps[k] = append(stateComps[k], int32(d))
		}
	}
	nc := len(comps)
	table := make([]uint8, nc*nc)
	verdicts := func(a, b int32) uint8 {
		v := &table[int(a)*nc+int(b)]
		if *v == 0 {
			ca, cb := comps[a], comps[b]
			*v = pairSeen
			if ca.Ports.HasOut && cb.Ports.HasIn {
				*v |= pairOutIn
			}
			kept := typelts.MaySync(&ca.Ports, &cb.Ports)
			hit := len(sem.SyncSteps(ca.ID, cb.ID)) > 0
			if kept {
				*v |= pairKept
			}
			if hit {
				*v |= pairHit
			}
			if hit && !kept {
				t.Errorf("%s: the port filter drops the pair (%s, %s), which synchronises",
					s.Name, in.TypeOf(ca.ID), in.TypeOf(cb.ID))
			}
			if exact && kept && !hit {
				t.Errorf("%s: the port filter keeps the pair (%s, %s), which has no step",
					s.Name, in.TypeOf(ca.ID), in.TypeOf(cb.ID))
			}
		}
		return *v
	}
	var n pairCounts
	for _, cs := range stateComps {
		for i, a := range cs {
			for j, b := range cs {
				if i == j {
					continue
				}
				v := verdicts(a, b)
				n.ordered++
				if v&pairOutIn != 0 {
					n.outIn++
				}
				if v&pairKept != 0 {
					n.kept++
				}
				if v&pairHit != 0 {
					n.hits++
				}
			}
		}
	}
	return n
}

// TestPortFilterExactOnFig9 pins the filter on the 19 Fig. 9 rows: it
// drops no synchronising pair, and every pair it keeps yields a step.
// The per-row counts are the table of DESIGN.md §port summaries
// (go test -v prints them).
func TestPortFilterExactOnFig9(t *testing.T) {
	for _, s := range systems.Fig9Systems() {
		n := checkPairs(t, s, true)
		t.Logf("%-32s ordered %9d  out×in %8d  kept %7d  hits %7d (%.1f%%)",
			s.Name, n.ordered, n.outIn, n.kept, n.hits, 100*float64(n.hits)/float64(n.ordered))
	}
}

// TestPortFilterSoundOnLargeRows is the soundness oracle on the Large
// rows. Re-interning the leaves of every one of their states (half a
// million for Ping-pong (12 pairs)) would take tens of seconds, so the
// oracle runs over a superset of their co-occurring pairs instead:
// every ordered pair, a component with itself included, of the
// components in the context-free descendant closure of the root. A
// state's components only ever change into their own steps' successors
// (a synchronisation's Next is the two participants' own successors
// concatenated), so every component of every reachable state is in the
// closure.
func TestPortFilterSoundOnLargeRows(t *testing.T) {
	for _, s := range systems.LargeSystems() {
		sem := &typelts.Semantics{Env: s.Env, WitnessOnly: true, Cache: typelts.NewCache(s.Env, true)}
		closure := sem.InternLeaves(s.Type)
		seen := map[types.ID]bool{}
		for _, id := range closure {
			seen[id] = true
		}
		for k := 0; k < len(closure); k++ {
			for _, st := range sem.ComponentSteps(closure[k]) {
				for _, nxt := range st.Next {
					if !seen[nxt] {
						seen[nxt] = true
						closure = append(closure, nxt)
					}
				}
			}
		}
		hits := 0
		for _, x := range closure {
			cx := sem.Component(x)
			for _, y := range closure {
				cy := sem.Component(y)
				if len(sem.SyncSteps(x, y)) == 0 {
					continue
				}
				hits++
				if !typelts.MaySync(&cx.Ports, &cy.Ports) {
					t.Errorf("%s: the port filter drops the pair (%s, %s), which synchronises",
						s.Name, sem.Cache.Interner().TypeOf(x), sem.Cache.Interner().TypeOf(y))
				}
			}
		}
		if hits == 0 {
			t.Errorf("%s: no synchronising pair in a closure of %d components", s.Name, len(closure))
		}
	}
}

// TestPortFilterSoundOnRandomCorpus is the soundness oracle on the
// 200-seed differential corpus, whose generated subjects include
// channels received as payloads and then used as subjects.
func TestPortFilterSoundOnRandomCorpus(t *testing.T) {
	for _, s := range systems.RandomSystems(200) {
		checkPairs(t, s, false)
	}
}

// benchExplore explores s, closed, with a cold cache per op: the
// exploration both engines run through expandState. opts builds the
// exploration's options over that op's cache (nil: explore in full), so
// a symmetry group is detected afresh each op.
func benchExplore(b *testing.B, s *systems.System, opts func(*typelts.Semantics) lts.Options) {
	b.ReportAllocs()
	states := 0
	for i := 0; i < b.N; i++ {
		sem := closedSem(s)
		var o lts.Options
		if opts != nil {
			o = opts(sem)
		}
		m, err := lts.Explore(sem, s.Type, o)
		if err != nil {
			b.Fatal(err)
		}
		states = m.Len()
	}
	b.ReportMetric(float64(states), "states")
}

func BenchmarkExplorePingPong8(b *testing.B) { benchExplore(b, systems.PingPongPairs(8, false), nil) }
func BenchmarkExploreDining7(b *testing.B)   { benchExplore(b, systems.DiningPhilosophers(7, true), nil) }

// BenchmarkExplorePingPong10 is the largest Fig. 9 exploration: 59 049
// states and 393 661 edges, one successor in seven of them new.
func BenchmarkExplorePingPong10(b *testing.B) { benchExplore(b, systems.PingPongPairs(10, false), nil) }

// BenchmarkExploreRing16x4POR covers the cycle proviso's probes of the
// state table.
func BenchmarkExploreRing16x4POR(b *testing.B) {
	benchExplore(b, systems.Ring(16, 4), func(*typelts.Semantics) lts.Options {
		return lts.Options{PartialOrder: &lts.POR{}}
	})
}

// BenchmarkExplorePingPong10Symmetric covers canonicalised
// registration: the 59 049-state sweep explored on its orbits under the
// interchangeable pairs.
func BenchmarkExplorePingPong10Symmetric(b *testing.B) {
	s := systems.PingPongPairs(10, false)
	benchExplore(b, s, func(sem *typelts.Semantics) lts.Options {
		return lts.Options{Symmetry: lts.DetectSymmetry(sem.Cache, s.Type, nil)}
	})
}
