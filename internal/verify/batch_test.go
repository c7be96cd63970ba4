package verify

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"effpi/internal/lts"
	"effpi/internal/types"
)

// engineRow is one route of the batch engine: a system, its batch, and
// the options that send the batch's properties down that route.
type engineRow struct {
	name  string
	env   *types.Env
	sys   types.Type
	props []Property
	opts  AllOptions
}

// engineRows covers every route the engine can pick: the shared group
// LTS, POR's own exploration, early exit's own exploration with the
// fallback schemas joining the shared group, symmetry (alone and
// winning over POR), and a batch with several open-property groups.
func engineRows() []engineRow {
	philEnv, phil, philProps := miniPhilosophers()
	pairEnv, pairs := symPairs(3)
	symEnv, symSys := symPairs(4)
	open := []Property{
		{Kind: NonUsage, Channels: []string{"f0"}},
		{Kind: Forwarding, From: "f0", To: "f1"},
		{Kind: EventualOutput, Channels: []string{"f1"}},
		{Kind: DeadlockFree, Channels: []string{"f0", "f1"}},
		{Kind: NonUsage, Channels: []string{"f1"}},
		{Kind: Reactive, From: "f0"},
	}
	return []engineRow{
		{"shared", philEnv, phil, philProps, AllOptions{}},
		{"por-own", pairEnv, pairs, symProps(), AllOptions{PartialOrder: PartialOrderOn}},
		{"early-own+fallback", philEnv, phil, philProps, AllOptions{EarlyExit: true}},
		{"symmetry", symEnv, symSys, symProps(), AllOptions{Symmetry: SymmetryOn}},
		{"symmetry-over-por", symEnv, symSys, symProps(), AllOptions{Symmetry: SymmetryOn, PartialOrder: PartialOrderOn}},
		{"open-groups", philEnv, phil, open, AllOptions{}},
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

// TestVerifyAllEngine is the batch engine's contract, route by width:
// at widths 1, 2 and 8 every outcome — verdict, state counts, raw and
// rendered witness, explored LTS — is byte-identical, equals the
// per-property Verify of the same request, and every FAIL replays. A
// probe channel missing from Γ at index 3 yields exactly the three
// outcomes before it plus that property's error, and so does a group
// that exceeds its state bound, at every width.
func TestVerifyAllEngine(t *testing.T) {
	widths := []int{1, 2, 8}
	for _, row := range engineRows() {
		t.Run(row.name, func(t *testing.T) {
			want := make([]string, len(row.props))
			for i, p := range row.props {
				o, err := Verify(Request{
					Env: row.env, Type: row.sys, Property: p, Parallelism: 1,
					Symmetry: row.opts.Symmetry, PartialOrder: row.opts.PartialOrder, EarlyExit: row.opts.EarlyExit,
					symPinned: batchPinnedChannels(row.props),
				})
				if err != nil {
					t.Fatalf("Verify %s: %v", p, err)
				}
				want[i] = renderOutcome(o)
			}
			var shapes []string
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
				for i, o := range outs {
					if got := renderOutcome(o); got != want[i] {
						t.Errorf("width %d %s: batch outcome differs from Verify:\n%s\nvs\n%s", w, row.props[i], got, want[i])
					}
					if !o.Holds && o.Property.Kind != EventualOutput {
						if err := Replay(o); err != nil {
							t.Errorf("width %d %s: witness does not replay: %v", w, row.props[i], err)
						}
					}
					shape := ltsShape(o.LTS)
					if w == widths[0] {
						shapes = append(shapes, shape)
					} else if shape != shapes[i] {
						t.Errorf("width %d %s: explored LTS differs from width %d", w, row.props[i], widths[0])
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
	full, err := VerifyAllWith(env, sys, props, AllOptions{Parallelism: 1})
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
		outs, err := VerifyAllWith(env, sys, props, AllOptions{Parallelism: w, MaxStates: bound})
		if !errors.Is(err, lts.ErrStateBound) {
			t.Fatalf("width %d: error %v, want the state bound", w, err)
		}
		if len(outs) != failAt {
			t.Errorf("width %d: %d outcomes before the bound, want %d", w, len(outs), failAt)
		}
	}
}
