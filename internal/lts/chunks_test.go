package lts_test

import (
	"errors"
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"effpi/internal/lts"
	"effpi/internal/systems"
	"effpi/internal/types"
)

// layout is an LTS read through its accessors, state by state.
type layout struct {
	numEdges int
	comps    [][]types.ID
	out      [][]lts.Edge
	perms    [][]int32
}

func readLayout(m *lts.LTS) layout {
	l := layout{numEdges: m.NumEdges()}
	for s := range m.Len() {
		out := m.Out(s)
		perms := make([]int32, len(out))
		for k := range out {
			perms[k] = m.EdgePerm(s, k)
		}
		l.comps = append(l.comps, slices.Clone(m.StateComps(s)))
		l.out = append(l.out, slices.Clone(out))
		l.perms = append(l.perms, perms)
	}
	return l
}

// diff reports the first place where l differs from the reference ref.
func (l layout) diff(t *testing.T, ref layout) {
	t.Helper()
	if len(l.comps) != len(ref.comps) || l.numEdges != ref.numEdges {
		t.Fatalf("%d states and %d edges, reference %d and %d", len(l.comps), l.numEdges, len(ref.comps), ref.numEdges)
	}
	edges := 0
	for s := range l.comps {
		edges += len(l.out[s])
		if !slices.Equal(l.comps[s], ref.comps[s]) {
			t.Fatalf("state %d: vector %v, reference %v", s, l.comps[s], ref.comps[s])
		}
		if !slices.Equal(l.out[s], ref.out[s]) || !slices.Equal(l.perms[s], ref.perms[s]) {
			t.Fatalf("state %d: edges %v perms %v, reference %v perms %v", s, l.out[s], l.perms[s], ref.out[s], ref.perms[s])
		}
	}
	if edges != l.numEdges {
		t.Fatalf("the states' edges add up to %d, NumEdges is %d", edges, l.numEdges)
	}
}

// layoutCase builds one LTS; it runs once per chunk geometry, each time
// from a fresh cache.
type layoutCase struct {
	name  string
	build func(t *testing.T) *lts.LTS
}

// exploreCase explores s, on its orbits when sym is set, and with the
// state bound maxStates, which it must hit, when that is set.
func exploreCase(s *systems.System, sym bool, maxStates int) layoutCase {
	name := s.Name
	if sym {
		name += "/symmetry"
	}
	if maxStates > 0 {
		name += "/truncated"
	}
	return layoutCase{name, func(t *testing.T) *lts.LTS {
		sem := closedSem(s)
		opts := lts.Options{MaxStates: maxStates}
		if sym {
			opts.Symmetry = lts.DetectSymmetry(sem.Cache, s.Type, nil)
			if opts.Symmetry == nil {
				t.Fatalf("%s: no symmetry group", s.Name)
			}
		}
		m, err := lts.Explore(sem, s.Type, opts)
		if maxStates > 0 {
			if !errors.Is(err, lts.ErrStateBound) || !m.Truncated {
				t.Fatalf("bound %d: err %v, truncated %v", maxStates, err, m.Truncated)
			}
		} else if err != nil {
			t.Fatal(err)
		}
		return m
	}}
}

// snapshotCase drives an Incremental depth-first until it has expanded
// limit states and returns its snapshot, after checking that every
// expanded state's Succ is the snapshot's Out.
func snapshotCase(s *systems.System, limit int) layoutCase {
	return layoutCase{s.Name + "/snapshot", func(t *testing.T) *lts.LTS {
		x := lts.NewIncremental(closedSem(s), s.Type, lts.Options{})
		seen := map[int]bool{}
		stack := []int{x.Initial()}
		for len(stack) > 0 && x.Expanded() < limit {
			st := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[st] {
				continue
			}
			seen[st] = true
			out, err := x.Succ(st)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range out {
				stack = append(stack, int(e.Dst))
			}
		}
		snap := x.Snapshot()
		if !snap.Partial {
			t.Fatalf("snapshot after %d of %d states is not partial", x.Expanded(), x.Len())
		}
		for st := range seen {
			out, _ := x.Succ(st)
			if !slices.Equal(out, snap.Out(st)) {
				t.Fatalf("state %d: Succ %v, snapshot %v", st, out, snap.Out(st))
			}
		}
		return snap
	}}
}

// TestChunkedLayoutMatchesFlat builds each LTS three times — with every
// array in one chunk (the flat layout), with the default chunks, and
// with chunks of at most eight elements, where state keys and edge runs
// cross chunk boundaries and outgrow whole chunks — and checks that
// Out, EdgePerm, StateComps and NumEdges read the same from all three.
func TestChunkedLayoutMatchesFlat(t *testing.T) {
	var cases []layoutCase
	for _, s := range systems.Fig9Systems() {
		cases = append(cases, exploreCase(s, false, 0))
	}
	pp6 := systems.PingPongPairs(6, false)
	cases = append(cases,
		exploreCase(systems.Ring(70, 1), false, 0), // keys of four words
		exploreCase(pp6, true, 0),
		exploreCase(pp6, false, 300),
		snapshotCase(pp6, 200),
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := c.build(t)
			ref := readLayout(m)
			total := 0
			for _, v := range ref.comps {
				total += len(v)
			}
			flat := bits.Len(uint(max(total, ref.numEdges, len(ref.comps))))
			t.Run("flat", func(t *testing.T) {
				lts.SetChunkGeometry(t, flat, flat)
				m := c.build(t)
				if keys, edges := lts.Chunks(m); keys > 1 || edges != 1 {
					t.Fatalf("flat geometry 1<<%d: %d and %d chunks, want one per array", flat, keys, edges)
				}
				ref = readLayout(m)
			})
			readLayout(m).diff(t, ref)
			t.Run("small", func(t *testing.T) {
				lts.SetChunkGeometry(t, 1, 3)
				m := c.build(t)
				if _, edges := lts.Chunks(m); edges < 2 {
					t.Fatalf("small geometry: %d edge chunks, want a chunk boundary", edges)
				}
				readLayout(m).diff(t, ref)
			})
		})
	}
}

// TestExploreAllocatesWhatItKeeps: with the typelts cache warm, an
// exploration allocates little beyond what its LTS keeps — growing the
// arena, the edges and the offsets copies nothing.
func TestExploreAllocatesWhatItKeeps(t *testing.T) {
	s := systems.PingPongPairs(8, false)
	sem := closedSem(s)
	if _, err := lts.Explore(sem, s.Type, lts.Options{}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := lts.Explore(sem, s.Type, lts.Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc, kept := after.TotalAlloc-before.TotalAlloc, lts.KeptBytes(m)
	t.Logf("%d states, %d edges: allocated %d B, kept %d B (%.2f×)", m.Len(), m.NumEdges(), alloc, kept, float64(alloc)/float64(kept))
	if float64(alloc) > 1.5*float64(kept) {
		t.Errorf("allocated %d B for an LTS that keeps %d B; want at most 1.5×", alloc, kept)
	}
}
