package verify

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"effpi/internal/lts"
	"effpi/internal/typelts"
	"effpi/internal/types"
)

// engineRow is one plan of the batch engine: a system, its batch, and
// the options that make planBatch pick that plan. single marks the rows
// whose every exploration serves one property or runs unreduced, so each
// outcome must equal a lone Verify of the same property; check, when
// set, asserts the row's own plan on the width-1 outcomes against the
// reducers-off reference.
type engineRow struct {
	name   string
	env    *types.Env
	sys    types.Type
	props  []Property
	opts   Options
	single bool
	check  func(t *testing.T, outs, ref []*Outcome)
}

// engineRows covers every plan the engine can pick: the shared group
// LTS; POR on one union-filtered exploration, on one exploration per
// open group, and disengaged in a mixed group and in a group with no
// eligible member; early exit's own
// explorations with the fallback schemas joining the shared group;
// symmetry (alone, winning over POR, and under early exit); and a
// batch with several open-property groups.
func engineRows() []engineRow {
	philEnv, phil, philProps := miniPhilosophers()
	pairEnv, pairs := symPairs(3)
	symEnv, symSys := symPairs(4)
	unionEnv, unionSys := symPairs(8)
	open := []Property{
		{Kind: NonUsage, Channels: []string{"f0"}},
		{Kind: Forwarding, From: "f0", To: "f1"},
		{Kind: EventualOutput, Channels: []string{"f1"}},
		{Kind: DeadlockFree, Channels: []string{"f0", "f1"}},
		{Kind: NonUsage, Channels: []string{"f1"}},
		{Kind: Reactive, From: "f0"},
	}
	return []engineRow{
		{name: "shared", env: philEnv, sys: phil, props: philProps, single: true},
		{name: "por-union", env: unionEnv, sys: unionSys, props: porUnionProps(), opts: Options{PartialOrder: PartialOrderOn}, check: checkPORUnion},
		{name: "por-own", env: pairEnv, sys: pairs, props: porOwnProps(), opts: Options{PartialOrder: PartialOrderOn}, single: true, check: checkPORPlan},
		{name: "por-mixed", env: pairEnv, sys: pairs, props: symProps(), opts: Options{PartialOrder: PartialOrderOn}, check: checkPORPlan},
		{name: "por-groups", env: pairEnv, sys: pairs, props: porGroupProps(), opts: Options{PartialOrder: PartialOrderOn}, check: checkPORPlan},
		{name: "early-own+fallback", env: philEnv, sys: phil, props: philProps, opts: Options{EarlyExit: true}, single: true},
		{name: "symmetry", env: symEnv, sys: symSys, props: symProps(), opts: Options{Symmetry: SymmetryOn}, check: checkOrbits(orbits, orbits, orbits, orbits)},
		{name: "symmetry-over-por", env: symEnv, sys: symSys, props: symProps(), opts: Options{Symmetry: SymmetryOn, PartialOrder: PartialOrderOn}, check: checkOrbits(orbits, orbits, orbits, orbits)},
		{name: "early+symmetry", env: symEnv, sys: symSys, props: symProps(), opts: Options{Symmetry: SymmetryOn, EarlyExit: true}, check: func(t *testing.T, outs, ref []*Outcome) {
			checkEarlySymmetric(t, outs, ref)
			checkOrbits(orbits, [2]int{39, 16}, [2]int{39, 16}, orbits)(t, outs, ref)
		}},
		{name: "open-groups", env: philEnv, sys: phil, props: open, single: true},
	}
}

// porUnionProps are the three POR-eligible schemas over one closed
// observable set, so one exploration with the union filter serves them.
func porUnionProps() []Property {
	return []Property{
		{Kind: NonUsage, Channels: []string{"z1"}, Closed: true},
		{Kind: DeadlockFree, Channels: []string{"z1"}, Closed: true},
		{Kind: Reactive, From: "z1", Closed: true},
	}
}

// porOwnProps are POR-eligible open properties with pairwise distinct
// observable sets: each group has one member, explored under its own
// filter exactly as a lone Verify would.
func porOwnProps() []Property {
	return []Property{
		{Kind: NonUsage, Channels: []string{"z1"}},
		{Kind: DeadlockFree, Channels: []string{"z2", "y2"}},
		{Kind: Reactive, From: "y3"},
	}
}

// porGroupProps are open properties in three observable-set groups: one
// POR serves ({z1}), one with no eligible member ({y2, z2}) and a mixed
// one ({y3}).
func porGroupProps() []Property {
	return []Property{
		{Kind: NonUsage, Channels: []string{"z1"}},
		{Kind: Forwarding, From: "z2", To: "y2"},
		{Kind: EventualOutput, Channels: []string{"y3"}},
		{Kind: Reactive, From: "z1"},
		{Kind: DeadlockFree, Channels: []string{"y3"}},
	}
}

// checkPORUnion: every outcome comes from one reduced exploration that
// is smaller than the full space.
func checkPORUnion(t *testing.T, outs, ref []*Outcome) {
	for i, o := range outs {
		if o.LTS != outs[0].LTS {
			t.Errorf("%s: explored on its own, want the one union-filtered LTS", o.Property)
		}
		if !o.PartialOrder || o.StatesExplored >= ref[i].States {
			t.Errorf("%s: por=%v explored %d of %d states, want a reduction", o.Property, o.PartialOrder, o.StatesExplored, ref[i].States)
		}
	}
}

// checkPORPlan: POR engages exactly on the explorations whose every
// member is POR-eligible, and reduces them. Every other outcome — of a
// mixed group or of a group with no eligible member — is the
// reducers-off outcome, byte for byte.
func checkPORPlan(t *testing.T, outs, ref []*Outcome) {
	served := map[*lts.LTS]bool{}
	for _, o := range outs {
		eligible, seen := served[o.LTS]
		served[o.LTS] = (eligible || !seen) && compilesOnTheFly(o.Property)
	}
	for i, o := range outs {
		if !served[o.LTS] {
			if got, want := renderOutcome(o), renderOutcome(ref[i]); got != want {
				t.Errorf("%s: outcome outside a POR-served group differs from reducers off:\n%s\nvs\n%s", o.Property, got, want)
			}
		} else if !o.PartialOrder || o.StatesExplored >= ref[i].States {
			t.Errorf("%s: por=%v explored %d of %d states, want a reduction", o.Property, o.PartialOrder, o.StatesExplored, ref[i].States)
		}
	}
}

// orbits are the (States, StatesExplored) of a whole orbit exploration
// of symPairs(4): 3^4 = 81 concrete states, and with z1 pinned the
// other three pairs are interchangeable, leaving 3·C(5,3) = 30 orbit
// representatives.
var orbits = [2]int{81, 30}

// checkOrbits pins each outcome's (States, StatesExplored) on its orbit
// LTS. An early-exit search counts only what it discovered before the
// verdict.
func checkOrbits(counts ...[2]int) func(t *testing.T, outs, ref []*Outcome) {
	return func(t *testing.T, outs, _ []*Outcome) {
		for i, o := range outs {
			if got := [2]int{o.States, o.StatesExplored}; o.LTS.Sym == nil || got != counts[i] {
				t.Errorf("%s: symmetric=%v (States, StatesExplored)=%v, want an orbit LTS with %v", o.Property, o.LTS.Sym != nil, got, counts[i])
			}
		}
	}
}

// checkEarlySymmetric: the eligible properties ran on the fly over
// their own orbit explorations, never sharing one.
func checkEarlySymmetric(t *testing.T, outs, _ []*Outcome) {
	seen := map[*lts.LTS]bool{}
	for _, o := range outs {
		if !compilesOnTheFly(o.Property) {
			continue
		}
		if !o.EarlyExit || o.LTS.Sym == nil || seen[o.LTS] {
			t.Errorf("%s: early=%v symmetric=%v shared=%v, want an own on-the-fly orbit exploration", o.Property, o.EarlyExit, o.LTS.Sym != nil, seen[o.LTS])
		}
		seen[o.LTS] = true
	}
}

// renderOutcome is the user-visible content of an outcome: verdict, state
// counts, engaged reducers, the raw lasso and the rendered witness.
func renderOutcome(o *Outcome) string {
	s := fmt.Sprintf("%s|holds=%v|states=%d|explored=%d|por=%v|early=%v",
		o.Property, o.Holds, o.States, o.StatesExplored, o.PartialOrder, o.EarlyExit)
	if o.Witness != nil {
		r := o.Witness.Raw
		s += fmt.Sprintf("|stem=%v%v|cycle=%v%v\n%s", r.StemStates, r.StemLabels, r.CycleStates, r.CycleLabels, o.Witness.Render(0))
	}
	return s
}

// ltsShape renders an LTS's alphabet and CSR adjacency.
func ltsShape(m *lts.LTS) string {
	var b strings.Builder
	fmt.Fprintf(&b, "initial=%d\n", m.Initial)
	for s := 0; s < m.Len(); s++ {
		for _, e := range m.Out(s) {
			fmt.Fprintf(&b, "%d -%s-> %d\n", s, m.LabelOf(e).Key(), e.Dst)
		}
	}
	return b.String()
}

// TestVerifyAllEngine is the batch engine's contract, plan by width: at
// widths 1, 2 and 8 every outcome — verdict, state counts, raw and
// rendered witness, explored LTS — is byte-identical, every verdict
// equals the reducers-off batch's, and every FAIL replays. A probe
// channel missing from Γ at index 3 yields exactly the three outcomes
// before it plus that property's error, at every width.
func TestVerifyAllEngine(t *testing.T) {
	widths := []int{1, 2, 8}
	for _, row := range engineRows() {
		t.Run(row.name, func(t *testing.T) {
			ref, err := VerifyAllWith(row.env, row.sys, row.props, Options{Parallelism: 1})
			if err != nil {
				t.Fatalf("reducers off: %v", err)
			}
			var want, shapes []string
			for _, w := range widths {
				opts := row.opts
				opts.Parallelism = w
				outs, err := VerifyAllWith(row.env, row.sys, row.props, opts)
				if err != nil {
					t.Fatalf("width %d: %v", w, err)
				}
				if len(outs) != len(row.props) {
					t.Fatalf("width %d: %d outcomes for %d properties", w, len(outs), len(row.props))
				}
				if w == widths[0] && row.check != nil {
					row.check(t, outs, ref)
				}
				for i, o := range outs {
					if o.Holds != ref[i].Holds {
						t.Errorf("width %d %s: verdict %v, reducers off %v", w, row.props[i], o.Holds, ref[i].Holds)
					}
					if !o.Holds && o.Property.Kind != EventualOutput {
						if err := Replay(o); err != nil {
							t.Errorf("width %d %s: witness does not replay: %v", w, row.props[i], err)
						}
					}
					got, shape := renderOutcome(o), ltsShape(o.LTS)
					if w == widths[0] {
						want, shapes = append(want, got), append(shapes, shape)
						continue
					}
					if got != want[i] {
						t.Errorf("width %d %s: outcome differs from width %d:\n%s\nvs\n%s", w, row.props[i], widths[0], got, want[i])
					}
					if shape != shapes[i] {
						t.Errorf("width %d %s: explored LTS differs from width %d", w, row.props[i], widths[0])
					}
				}
			}
			if row.single {
				for i, p := range row.props {
					opts := row.opts
					opts.Parallelism = 1
					o, err := Verify(Request{Env: row.env, Type: row.sys, Property: p, Options: opts})
					if err != nil {
						t.Fatalf("Verify %s: %v", p, err)
					}
					if got := renderOutcome(o); got != want[i] {
						t.Errorf("%s: lone Verify differs from the batch:\n%s\nvs\n%s", p, got, want[i])
					}
				}
			}

			// Error contract: a probe channel missing from Γ at index 3.
			bad := Property{Kind: Reactive, From: "nope", Closed: true}
			withBad := append(append(append([]Property{}, row.props[:3]...), bad), row.props[3:]...)
			for _, w := range widths {
				opts := row.opts
				opts.Parallelism = w
				outs, err := VerifyAllWith(row.env, row.sys, withBad, opts)
				if err == nil || !strings.Contains(err.Error(), bad.String()) {
					t.Errorf("width %d: error %v does not name %s", w, err, bad)
				}
				if len(outs) != 3 {
					t.Errorf("width %d: %d outcomes before the failing property, want 3", w, len(outs))
				}
			}
		})
	}
}

// TestVerifyAllEngineStateBound: a group whose exploration exceeds the
// state bound fails its first property with lts.ErrStateBound, and
// every earlier property — served by a smaller group — still comes
// back, at every width.
func TestVerifyAllEngineStateBound(t *testing.T) {
	env, sys, _ := miniPhilosophers()
	props := []Property{
		{Kind: DeadlockFree, Closed: true},
		{Kind: NonUsage, Channels: []string{"f0"}, Closed: true},
		{Kind: NonUsage, Channels: []string{"f0"}},
		{Kind: Forwarding, From: "f0", To: "f1"},
	}
	full, err := VerifyAllWith(env, sys, props, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	bound, failAt := full[0].States, -1
	for i, o := range full {
		if o.States > bound {
			failAt = i
			break
		}
	}
	if failAt < 1 {
		t.Fatalf("fixture has no group larger than the closed one (states %v)", full)
	}
	for _, w := range []int{1, 2, 8} {
		outs, err := VerifyAllWith(env, sys, props, Options{Parallelism: w, MaxStates: bound})
		if !errors.Is(err, lts.ErrStateBound) {
			t.Fatalf("width %d: error %v, want the state bound", w, err)
		}
		if len(outs) != failAt {
			t.Errorf("width %d: %d outcomes before the bound, want %d", w, len(outs), failAt)
		}
	}
}

// lateTimer is a context whose deadline has passed but whose timer has
// not fired yet, as under CPU load: Err is still nil.
type lateTimer struct{ context.Context }

func (lateTimer) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestDeadlineAtEveryBoundary expires the deadline at each phase
// boundary in turn. The first property, deadlock-freedom, FAILs, so
// every boundary lies on its path: the batch must fail with a timeout
// error and no outcome, at widths 1 and 2, and the transition cache it
// leaves behind must give byte-identical results afterwards. A deadline
// that has passed before its timer fires must stop the batch too.
func TestDeadlineAtEveryBoundary(t *testing.T) {
	env, sys, props := miniPhilosophers()
	render := func(outs []*Outcome) string {
		var b strings.Builder
		for _, o := range outs {
			b.WriteString(renderOutcome(o) + "\n")
		}
		return b.String()
	}
	// Under early exit deadlock-freedom is searched on the fly; without
	// it, all six properties share one exploration.
	cases := []struct {
		at    string
		early bool
	}{{afterExplore, false}, {beforeCheck, false}, {beforeEarly, true}, {beforeLift, false}, {beforeLift, true},
		{afterCheck, false}, {afterCheck, true}}
	for _, c := range cases {
		for _, w := range []int{1, 2} {
			opts := Options{EarlyExit: c.early, Parallelism: w}
			ref, err := VerifyAllWith(env, sys, props, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Cache = typelts.NewCache(env, true)
			name := fmt.Sprintf("%s/early=%v/width=%d", c.at, c.early, w)
			t.Run(name, func(t *testing.T) {
				ExpireDeadlineAt(t, c.at)
				outs, err := VerifyAllContext(context.Background(), env, sys, props, opts)
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("error %v, want the deadline", err)
				}
				if len(outs) != 0 {
					t.Errorf("%d outcomes, want none", len(outs))
				}
			})
			outs, err := VerifyAllWith(env, sys, props, opts)
			if err != nil {
				t.Fatalf("%s: reusing the cache: %v", name, err)
			}
			if got, want := render(outs), render(ref); got != want {
				t.Errorf("%s: reusing the cache changed the outcomes:\n%s\nwant:\n%s", name, got, want)
			}
		}
	}

	outs, err := VerifyAllContext(lateTimer{context.Background()}, env, sys, props, Options{})
	if !errors.Is(err, context.DeadlineExceeded) || len(outs) != 0 {
		t.Errorf("late timer: %d outcomes, error %v; want none and the deadline", len(outs), err)
	}
}
