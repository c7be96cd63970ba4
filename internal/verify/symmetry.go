package verify

// Exploration-time symmetry reduction (Options.Symmetry): the verifier
// detects the channel permutation group of a closed system — the direct
// product of symmetric groups over interchangeable-bundle classes
// (lts.DetectSymmetry, pinning every channel the property observes) —
// explores the orbit LTS instead of the concrete one, and — on FAIL —
// lifts the orbit counterexample back to a concrete run by composing
// the permutations recorded on the orbit edges, re-validating the result
// with the PR 3 replay oracle. A lift that fails to produce a violating
// concrete run is an internal error, never a verdict. The lift is
// group-agnostic: it only ever composes, inverts and applies recorded
// permutations.
//
// Soundness of the orbit check: the group G is an automorphism group of
// the concrete LTS (every π ∈ G maps reachable states to reachable
// states and edges to edges with π-renamed labels), and G fixes every
// channel the property mentions, so the property — read as the
// conjunction over its whole G-closed payload alphabet — is G-invariant.
// Checking a G-invariant linear-time property on the orbit quotient is
// then equivalent to checking it on the concrete system (the classical
// symmetry-reduction argument of Emerson–Sistla). The lift below turns
// that equivalence into machine-checked evidence for every FAIL.

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"effpi/internal/lts"
	"effpi/internal/mucalc"
	"effpi/internal/typelts"
)

// SymmetryMode selects exploration-time symmetry reduction.
type SymmetryMode int

const (
	// SymmetryOff explores the concrete state space (the reference
	// pipeline).
	SymmetryOff SymmetryMode = iota
	// SymmetryOn canonicalises every explored state to its orbit
	// representative under the system's channel permutation group —
	// interchangeable-bundle classes (lts.DetectSymmetry) — pinning
	// every observed channel. Verdicts are
	// identical to SymmetryOff; every FAIL's witness is lifted to a
	// concrete run and re-validated by Replay. Where it engages is
	// planBatch's routing rule.
	SymmetryOn
)

var symmetryNames = map[SymmetryMode]string{
	SymmetryOff: "off",
	SymmetryOn:  "on",
}

func (s SymmetryMode) String() string {
	if n, ok := symmetryNames[s]; ok {
		return n
	}
	return fmt.Sprintf("SymmetryMode(%d)", int(s))
}

// ParseSymmetry resolves a symmetry mode name ("off", "on") as used by
// CLI flags and service request fields. Unknown names report the valid
// values.
func ParseSymmetry(name string) (SymmetryMode, error) {
	for s, n := range symmetryNames {
		if n == name {
			return s, nil
		}
	}
	return SymmetryOff, fmt.Errorf("verify: unknown symmetry mode %q (valid values: %s)", name, validModeNames(symmetryNames))
}

// validModeNames renders a mode-name map as a sorted, comma-separated
// list for error messages (shared by ParseSymmetry and
// ParsePartialOrder).
func validModeNames[M comparable](m map[M]string) string {
	names := make([]string, 0, len(m))
	for _, n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// pinnedChannels lists the channels a batch observes — probe channels,
// From and To, in first-mention order — which symmetry detection must
// never permute: one orbit exploration serves every closed property of
// the batch, so its group must fix every channel any of them observes.
func pinnedChannels(props []Property) []string {
	var out []string
	seen := map[string]bool{}
	add := func(x string) {
		if x != "" && !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	for _, p := range props {
		for _, c := range p.Channels {
			add(c)
		}
		add(p.From)
		add(p.To)
	}
	return out
}

// orbitStep is one resolved transition of an orbit-LTS lasso: the edge
// plus the canonicalisation permutation recorded for it.
type orbitStep struct {
	from, to int
	lab      int32
	perm     int32
}

// resolveOrbitSteps maps a witness segment onto orbit edges. Edge dedup
// keeps one edge per (label, destination) pair, so the lookup is
// unambiguous; the permutation found maps the canonical destination back
// to *a* raw successor of the source, which is all the lift needs.
func resolveOrbitSteps(m *lts.LTS, states []int, labels []int32) ([]orbitStep, error) {
	steps := make([]orbitStep, 0, len(labels))
	for i, lab := range labels {
		from, to := states[i], states[i+1]
		found := false
		for k, e := range m.Out(from) {
			if e.Label == lab && int(e.Dst) == to {
				steps = append(steps, orbitStep{from: from, to: to, lab: lab, perm: m.EdgePerm(from, k)})
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("witness step %d→%d (label %d) is not an edge of the orbit LTS", from, to, lab)
		}
	}
	return steps, nil
}

// liftSymmetric rewrites a FAIL outcome found on an orbit LTS into
// concrete terms: a concrete lasso, the concrete fragment it runs over
// (Outcome.WitnessLTS), and — for a formula compiled over an alphabet —
// the property recompiled over that fragment, so Replay can re-validate the
// verdict on concrete semantics.
//
// The lift walks a fresh symmetry-free incremental exploration of the
// same type over the same interner, tracking the accumulated permutation
// ρ that maps the current orbit representative onto the current concrete
// state: ρ₀ inverts the root canonicalisation, each orbit edge with
// recorded permutation π contributes the concrete label ρ(label) and
// updates ρ ← ρ∘π⁻¹. The orbit cycle is unrolled until the concrete walk
// revisits a cycle-head state, which the permutation algebra bounds by
// the order of the cycle's composed permutation δ (ρ at the k-th head is
// ρ₀∘δᵏ, and δ has finite order).
func liftSymmetric(ctx context.Context, req Request, sem *typelts.Semantics, m *lts.LTS, out *Outcome) error {
	sym := m.Sym.S
	raw := out.Witness.Raw
	if !sem.HasCompatibleCache() || !sym.SameInterner(sem.Cache.Interner()) {
		return fmt.Errorf("the outcome's symmetry group was detected over a different transition cache")
	}

	stem, err := resolveOrbitSteps(m, raw.StemStates, raw.StemLabels)
	if err != nil {
		return err
	}
	cyc, err := resolveOrbitSteps(m, raw.CycleStates, raw.CycleLabels)
	if err != nil {
		return err
	}
	if len(cyc) == 0 {
		return fmt.Errorf("orbit witness has an empty cycle")
	}

	inc := lts.NewIncrementalContext(ctx, sem, req.Type, lts.Options{MaxStates: req.MaxStates})
	rho := sym.Invert(m.Sym.RootPerm)
	cur := inc.Initial()
	lifted := &mucalc.Witness{StemStates: []int{cur}}

	// step advances the concrete walk along one orbit step: the concrete
	// label is ρ(label), the expected concrete successor is
	// (ρ∘π⁻¹)(canonical destination), matched among the concrete edges by
	// label key and component multiset, both sorted by ID value: two
	// multisets are equal iff their sorted vectors are.
	step := func(st orbitStep) error {
		next := sym.Compose(rho, sym.Invert(st.perm))
		lab := sym.PermuteLabel(rho, m.Labels[st.lab])
		want, ok := sym.PermuteComps(next, m.StateComps(st.to))
		if !ok {
			return fmt.Errorf("orbit state %d has components the group cannot place", st.to)
		}
		slices.Sort(want)
		wantKey := lab.Key()
		edges, err := inc.Succ(cur)
		if err != nil {
			return err
		}
		for _, e := range edges {
			if inc.Labels()[e.Label].Key() != wantKey {
				continue
			}
			got := inc.StateComps(int(e.Dst))
			if slices.Sort(got); slices.Equal(got, want) {
				lifted.StemLabels = append(lifted.StemLabels, e.Label)
				cur = int(e.Dst)
				lifted.StemStates = append(lifted.StemStates, cur)
				rho = next
				return nil
			}
		}
		return fmt.Errorf("concrete state %d has no successor matching lifted label %s", cur, wantKey)
	}

	for _, st := range stem {
		if err := step(st); err != nil {
			return err
		}
	}

	// δ is the permutation one cycle unrolling composes onto ρ; its order
	// bounds the number of unrollings before a concrete head repeats.
	delta := int32(0)
	for _, st := range cyc {
		delta = sym.Compose(delta, sym.Invert(st.perm))
	}
	ord := 1
	for d := delta; d != 0; d = sym.Compose(d, delta) {
		ord++
		if ord > 1<<20 {
			return fmt.Errorf("cycle permutation order exceeds 2^20 — group bookkeeping is inconsistent")
		}
	}

	firstSeen := map[int]int{}
	for iter := 0; iter <= ord; iter++ {
		if at, ok := firstSeen[cur]; ok {
			cut := len(stem) + at*len(cyc)
			w := &mucalc.Witness{
				StemStates:  lifted.StemStates[:cut+1],
				StemLabels:  lifted.StemLabels[:cut],
				CycleStates: lifted.StemStates[cut:],
				CycleLabels: lifted.StemLabels[cut:],
			}
			return finishLift(req, inc, w, out)
		}
		firstSeen[cur] = iter
		for _, st := range cyc {
			if err := step(st); err != nil {
				return err
			}
		}
	}
	return fmt.Errorf("concrete cycle did not close within %d unrollings (order of δ) — group bookkeeping is inconsistent", ord)
}

// finishLift installs the lifted lasso on the outcome: the concrete
// fragment snapshot becomes WitnessLTS, the witness and counterexample
// are re-decoded against it, and a formula compiled over an alphabet is
// recompiled over the fragment's (which contains every lifted label) so
// the replay oracle evaluates ϕ on the concrete labels. An
// early-exit formula, compiled with no alphabet, evaluates its predicate
// sets on any label and needs no recompilation.
func finishLift(req Request, inc *lts.Incremental, w *mucalc.Witness, out *Outcome) error {
	wl := inc.Snapshot()
	out.WitnessLTS = wl
	out.Witness = DecodeWitness(wl, w)
	out.Counterexample = w.Trace(wl.Labels)
	if !out.EarlyExit {
		phi, err := Compile(req.Env, wl, req.Property)
		if err != nil {
			return fmt.Errorf("recompiling the property over the lifted fragment: %w", err)
		}
		out.Formula = phi
	}
	return nil
}
