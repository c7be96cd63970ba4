package typelts

import (
	"effpi/internal/types"
)

// Step is one labelled transition Γ ⊢ T --α--> T′.
type Step struct {
	Label Label
	Next  types.Type
}

// Semantics computes transitions of types in a fixed environment Γ,
// optionally limited to a set of observable channels (Def. 4.9).
//
// A Semantics value is for a single goroutine: it carries mutable
// bookkeeping (depthHit), which is not synchronised. The Cache it points
// to, however, IS safe for concurrent use — concurrent explorations each
// build their own Semantics over one shared cache, so their
// per-component work is computed once and served to all.
type Semantics struct {
	Env *types.Env
	// Observable, when non-nil, enables the Y-limitation ↑Γ Y: input and
	// output transitions are kept only when their subject is a variable
	// in the set; synchronisations (τ) always remain.
	Observable map[string]bool
	// WitnessOnly restricts early-input instances to environment
	// variables when at least one variable candidate exists, falling back
	// to the parameter type otherwise. Thm. 4.10's footnote assumes Γ
	// contains a witness y:U for every input domain U; with witnesses
	// present, the variable instances subsume the anonymous type instance
	// for the Fig. 7 properties, and dropping it keeps continuations
	// trackable (an anonymous received channel could never be used under
	// the Y-limitation). The verifier enables this; plain exploration
	// keeps the paper's full [T→i] rule.
	WitnessOnly bool
	// Cache, when non-nil and built for the same Env/WitnessOnly pair,
	// serves the component API (Component, SyncSteps), memoising what
	// each hash-consed component can do and how each ordered pair of
	// components synchronises. Sharing one Cache across explorations
	// (verify.VerifyAll does) shares their per-component work; the
	// Y-limitation is applied on top of cached entries, so a Cache may
	// serve semantics with different Observable sets. Transitions does
	// not read it.
	Cache *Cache
	// depthHit records that the unfold-depth guard fired somewhere below
	// the current component computation; such (truncated) results are
	// not admitted into the cache.
	depthHit bool
}

// Transitions returns all labelled transitions of t (Fig. 6), after
// applying the Y-limitation if configured.
func (s *Semantics) Transitions(t types.Type) []Step {
	steps := s.raw(t, 0)
	if s.Observable == nil {
		return steps
	}
	kept := make([]Step, 0, len(steps))
	for _, st := range steps {
		if s.keep(st.Label) {
			kept = append(kept, st)
		}
	}
	return kept
}

// keep implements Def. 4.9: i/o labels require a variable subject in Y.
func (s *Semantics) keep(l Label) bool {
	switch l := l.(type) {
	case Output:
		return s.observableSubject(l.Subject)
	case Input:
		return s.observableSubject(l.Subject)
	default:
		return true
	}
}

func (s *Semantics) observableSubject(sub types.Type) bool {
	v, ok := sub.(types.Var)
	return ok && s.Observable[v.Name]
}

const maxUnfoldDepth = 64

// raw computes the un-limited transitions.
func (s *Semantics) raw(t types.Type, depth int) []Step {
	if depth > maxUnfoldDepth {
		s.depthHit = true
		return nil
	}
	switch t := t.(type) {
	case types.Rec:
		// ≡: µt.T ≡ T{µt.T/t}; contractivity bounds the unfolding.
		return s.raw(types.Unfold(t), depth+1)

	case types.Union:
		// τ[∨]: T ∨ U reduces to either branch.
		leaves := types.FlattenUnion(t)
		steps := make([]Step, 0, len(leaves))
		for _, leaf := range leaves {
			steps = append(steps, Step{Label: TauChoice{}, Next: leaf})
		}
		return steps

	case types.Out:
		return s.outSteps(t, depth)

	case types.In:
		return s.inSteps(t, depth)

	case types.Par:
		return s.parSteps(t, depth)

	default:
		// nil, proc, and non-process types have no transitions.
		return nil
	}
}

// outSteps implements [T→o] plus the reduction contexts o[E,T,U],
// o[S,E,U] (unions in channel or payload position resolve first).
func (s *Semantics) outSteps(t types.Out, depth int) []Step {
	if u, ok := t.Ch.(types.Union); ok {
		var steps []Step
		for _, leaf := range types.FlattenUnion(u) {
			steps = append(steps, Step{Label: TauChoice{}, Next: types.Out{Ch: leaf, Payload: t.Payload, Cont: t.Cont}})
		}
		return steps
	}
	if u, ok := t.Payload.(types.Union); ok {
		// A union payload that is itself a π-choice stays; only resolve
		// unions of *types* in payload position when they would otherwise
		// block nothing — per Fig. 6 the context o[S,E,U] permits it.
		var steps []Step
		for _, leaf := range types.FlattenUnion(u) {
			steps = append(steps, Step{Label: TauChoice{}, Next: types.Out{Ch: t.Ch, Payload: leaf, Cont: t.Cont}})
		}
		steps = append(steps, s.fireOut(t, depth)...)
		return steps
	}
	return s.fireOut(t, depth)
}

func (s *Semantics) fireOut(t types.Out, depth int) []Step {
	cont := t.Cont
	if pi, ok := types.UnfoldAll(cont).(types.Pi); ok {
		cont = pi.Cod
	}
	return []Step{{Label: Output{Subject: t.Ch, Payload: t.Payload}, Next: cont}}
}

// inSteps implements [T→i]: early input. The payload T′ is either the
// continuation's parameter type T itself, or any environment variable x
// with Γ ⊢ x ⩽ T; the chosen payload is substituted into the continuation
// type (the type-level substitution that tracks channel passing).
func (s *Semantics) inSteps(t types.In, depth int) []Step {
	pi, ok := types.UnfoldAll(t.Cont).(types.Pi)
	if !ok {
		return nil
	}
	var witnesses []string
	if s.HasCompatibleCache() {
		witnesses = s.Cache.Witnesses(pi.Dom)
	} else {
		witnesses = s.Env.Witnesses(pi.Dom)
	}
	var candidates []types.Type
	for _, name := range witnesses {
		candidates = append(candidates, types.Var{Name: name})
	}
	if !s.WitnessOnly || len(candidates) == 0 {
		candidates = append([]types.Type{pi.Dom}, candidates...)
	}
	steps := make([]Step, 0, len(candidates))
	for _, payload := range candidates {
		next := pi.Cod
		if pi.Var != "" {
			next = types.Subst(pi.Cod, pi.Var, payload)
		}
		steps = append(steps, Step{Label: Input{Subject: t.Ch, Payload: payload}, Next: next})
	}
	return steps
}

// parSteps lifts component transitions through the parallel context and
// adds synchronisations [T→iox]/[T→io].
func (s *Semantics) parSteps(t types.Par, depth int) []Step {
	comps := types.FlattenPar(t)
	if len(comps) == 0 {
		return nil
	}
	perComp := make([][]Step, len(comps))
	for i, c := range comps {
		perComp[i] = s.raw(c, depth+1)
	}

	var steps []Step
	// Interleaving: each component may act on its own.
	for i, cs := range perComp {
		for _, st := range cs {
			steps = append(steps, Step{Label: st.Label, Next: replaceComp(comps, i, st.Next)})
		}
	}
	// Synchronisation: an output of component i meets an input of
	// component j (i ≠ j; ≡ commutativity makes the pair unordered).
	for i := range comps {
		for j := range comps {
			if i == j {
				continue
			}
			for _, so := range perComp[i] {
				out, ok := so.Label.(Output)
				if !ok {
					continue
				}
				for _, si := range perComp[j] {
					in, ok := si.Label.(Input)
					if !ok {
						continue
					}
					if !s.match(out, in) {
						continue
					}
					next := replaceComp2(comps, i, so.Next, j, si.Next)
					steps = append(steps, Step{
						Label: Comm{Sender: out.Subject, Receiver: in.Subject, Payload: out.Payload},
						Next:  next,
					})
				}
			}
		}
	}
	return steps
}

// match decides whether an output S⟨T⟩ and an input S′(T′) synchronise:
// Γ ⊢ S ▷◁ S′, and either the payload is a variable x transmitted as
// itself ([T→iox]: the input instance with payload exactly x), or a
// non-variable payload with Γ ⊢ T ⩽ T′ ([T→io]). Component pairs ask it
// once per output/input step pair, and SyncSteps memoises the answer for
// the whole pair.
func (s *Semantics) match(out Output, in Input) bool {
	if !types.MightInteract(s.Env, out.Subject, in.Subject) {
		return false
	}
	if pv, ok := out.Payload.(types.Var); ok {
		iv, ok := in.Payload.(types.Var)
		return ok && iv.Name == pv.Name
	}
	if _, ok := in.Payload.(types.Var); ok {
		// [T→io] requires T ∉ X and pairs it with the early-input
		// instance at the parameter type, not a variable instance.
		return false
	}
	return types.Subtype(s.Env, out.Payload, in.Payload)
}

func replaceComp(comps []types.Type, i int, next types.Type) types.Type {
	out := make([]types.Type, 0, len(comps))
	for k, c := range comps {
		if k == i {
			out = append(out, types.FlattenPar(next)...)
		} else {
			out = append(out, c)
		}
	}
	return types.ParOf(out...)
}

func replaceComp2(comps []types.Type, i int, ni types.Type, j int, nj types.Type) types.Type {
	out := make([]types.Type, 0, len(comps))
	for k, c := range comps {
		switch k {
		case i:
			out = append(out, types.FlattenPar(ni)...)
		case j:
			out = append(out, types.FlattenPar(nj)...)
		default:
			out = append(out, c)
		}
	}
	return types.ParOf(out...)
}
