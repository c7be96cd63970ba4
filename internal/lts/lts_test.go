package lts

import (
	"slices"
	"strings"
	"testing"

	"effpi/internal/typelts"
	"effpi/internal/types"
)

func tv(n string) types.Type { return types.Var{Name: n} }

func pingPong() (*typelts.Semantics, types.Type) {
	env := types.EnvOf(
		"y", types.ChanIO{Elem: types.Str{}},
		"z", types.ChanIO{Elem: types.ChanO{Elem: types.Str{}}},
	)
	t := types.Par{
		L: types.Out{Ch: tv("z"), Payload: tv("y"),
			Cont: types.Thunk(types.In{Ch: tv("y"), Cont: types.Pi{Var: "r", Dom: types.Str{}, Cod: types.Nil{}}})},
		R: types.In{Ch: tv("z"),
			Cont: types.Pi{Var: "w", Dom: types.ChanO{Elem: types.Str{}},
				Cod: types.Out{Ch: tv("w"), Payload: types.Str{}, Cont: types.Thunk(types.Nil{})}}},
	}
	return &typelts.Semantics{Env: env, Observable: map[string]bool{}, WitnessOnly: true}, t
}

func TestExploreClosedPingPong(t *testing.T) {
	sem, t0 := pingPong()
	m, err := Explore(sem, t0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Closed: τ[z,z] then τ[y,y] then termination — three states.
	if m.Len() != 3 {
		t.Errorf("states = %d, want 3", m.Len())
	}
	if m.Deadlocked() {
		t.Error("ping-pong must terminate cleanly (✔), not deadlock")
	}
	// Final state self-loops on ✔.
	sawDone := false
	for s := 0; s < m.Len(); s++ {
		for _, e := range m.Out(s) {
			if _, ok := m.LabelOf(e).(typelts.Done); ok {
				sawDone = true
			}
		}
	}
	if !sawDone {
		t.Error("terminated state must carry a ✔ completion loop")
	}
}

func TestEveryStateHasSuccessor(t *testing.T) {
	sem, t0 := pingPong()
	m, err := Explore(sem, t0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.Len(); i++ {
		if len(m.Out(i)) == 0 {
			t.Errorf("state %d (%s) has no outgoing edge: runs must be completed", i, m.StateType(i))
		}
	}
}

func TestAlphabetDeterministic(t *testing.T) {
	sem, t0 := pingPong()
	m, _ := Explore(sem, t0, Options{})
	a1 := m.Alphabet()
	a2 := m.Alphabet()
	if len(a1) != len(a2) {
		t.Fatal("alphabet size changed between calls")
	}
	for i := range a1 {
		if a1[i].Key() != a2[i].Key() {
			t.Fatal("alphabet order not deterministic")
		}
	}
}

func TestStateBound(t *testing.T) {
	// An unbounded counter-ish type family cannot be built with finite
	// control; instead force a tiny bound on a legal system.
	sem, t0 := pingPong()
	_, err := Explore(sem, t0, Options{MaxStates: 1})
	if err == nil {
		t.Fatal("exploration must fail when the bound is exceeded")
	}
	if !strings.Contains(err.Error(), "state bound") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestDeadlockCompletion(t *testing.T) {
	// A lone output with no partner under a closed limitation is stuck.
	env := types.EnvOf("x", types.ChanIO{Elem: types.Int{}})
	sem := &typelts.Semantics{Env: env, Observable: map[string]bool{}}
	t0 := types.Out{Ch: tv("x"), Payload: types.Int{}, Cont: types.Thunk(types.Nil{})}
	m, err := Explore(sem, t0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Deadlocked() {
		t.Error("a partnerless output under ↑∅ must be reported as deadlocked")
	}
}

func TestDOTOutput(t *testing.T) {
	sem, t0 := pingPong()
	m, _ := Explore(sem, t0, Options{})
	dot := m.DOT()
	for _, want := range []string{"digraph", "init ->", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestNumEdges(t *testing.T) {
	sem, t0 := pingPong()
	m, _ := Explore(sem, t0, Options{})
	if m.NumEdges() < m.Len() {
		t.Errorf("completed LTS must have ≥ one edge per state: %d edges, %d states", m.NumEdges(), m.Len())
	}
}

// TestChunkedRuns appends runs of every length from none to past a
// whole chunk, under chunks of at most eight elements, and reads each
// one back through its offset; a frozen copy taken halfway keeps reading
// the runs it held.
func TestChunkedRuns(t *testing.T) {
	SetChunkGeometry(t, 1, 3)
	var c, offs chunked[int32]
	var frozen, frozenOffs chunked[int32]
	var want [][]int32
	next := int32(0)
	for i := range 200 {
		run := make([]int32, i*7%13)
		for k := range run {
			run[k] = next
			next++
		}
		c.reserve(len(run))
		offs.add(int32(c.pos))
		if i%2 == 0 {
			c.pushAll(run)
		} else {
			for _, x := range run {
				c.push(x)
			}
		}
		want = append(want, run)
		if i == 100 {
			frozen, frozenOffs = c.frozen(), offs.frozen()
		}
	}
	check := func(name string, c, offs *chunked[int32], want [][]int32) {
		t.Helper()
		if offs.n != len(want) {
			t.Fatalf("%s: %d offsets, want %d", name, offs.n, len(want))
		}
		for s, run := range want {
			if got := c.view(runBounds(offs, s, c.pos)); !slices.Equal(got, run) {
				t.Fatalf("%s: run %d reads %v, want %v", name, s, got, run)
			}
		}
	}
	check("chunked", &c, &offs, want)
	check("frozen", &frozen, &frozenOffs, want[:101])
	if c.n != int(next) {
		t.Errorf("holds %d elements, pushed %d", c.n, next)
	}
}
