package types

import (
	"fmt"
	"slices"
)

// This file implements the well-formedness judgements of Fig. 4:
//
//	⊢ Γ env          the environment is valid
//	Γ ⊢ T type       T is a valid (functional) type
//	Γ ⊢ T π-type     T is a valid process type
//
// plus the two side conditions used by the verification pipeline:
// guardedness (Lemma 4.7) and finite control (the implementation's known
// limitation 2: no parallel composition under recursion).

// Kind distinguishes the two well-formedness judgements.
type Kind int

const (
	// KindNone means the type is not well-formed.
	KindNone Kind = iota
	// KindType means Γ ⊢ T type.
	KindType
	// KindProc means Γ ⊢ T π-type.
	KindProc
)

func (k Kind) String() string {
	switch k {
	case KindType:
		return "type"
	case KindProc:
		return "π-type"
	default:
		return "ill-formed"
	}
}

// CheckEnv verifies ⊢ Γ env: every bound type must be a valid type (not a
// π-type; rule [Γ-x] only admits Γ ⊢ T type).
func CheckEnv(env *Env) error {
	for _, name := range env.Names() {
		t, _ := env.Lookup(name)
		if err := CheckType(env, t); err != nil {
			return fmt.Errorf("environment entry %s: %w", name, err)
		}
	}
	return nil
}

// CheckType verifies Γ ⊢ T type.
func CheckType(env *Env, t Type) error {
	w := &wfChecker{env: env}
	return w.check(t, KindType, map[string]Kind{})
}

// CheckProcType verifies Γ ⊢ T π-type.
func CheckProcType(env *Env, t Type) error {
	w := &wfChecker{env: env}
	return w.check(t, KindProc, map[string]Kind{})
}

// ClassifyType returns which of the two judgements (if any) t satisfies
// in Γ: Γ ⊢ T type, Γ ⊢ T π-type, or neither.
func ClassifyType(env *Env, t Type) Kind {
	if CheckProcType(env, t) == nil {
		return KindProc
	}
	if CheckType(env, t) == nil {
		return KindType
	}
	return KindNone
}

type wfChecker struct {
	env *Env
}

// check verifies the judgement of the requested kind. recVars maps in-scope
// recursion variables to the kind of judgement under which they were bound
// ([T-µ] vs [π-µ]).
func (w *wfChecker) check(t Type, kind Kind, recVars map[string]Kind) error {
	switch t := t.(type) {
	case Bool, Unit, Int, Str, Top, Bottom:
		if kind != KindType {
			return fmt.Errorf("%s is a type, not a π-type", t)
		}
		return nil
	case Proc, Nil:
		if kind != KindProc {
			return fmt.Errorf("%s is a π-type, not a type", t)
		}
		return nil
	case Var:
		if kind != KindType {
			return fmt.Errorf("variable type %s cannot be a π-type", t.Name)
		}
		if !w.env.Has(t.Name) {
			return fmt.Errorf("type variable %s not bound in environment", t.Name)
		}
		return nil
	case RecVar:
		bk, ok := recVars[t.Name]
		if !ok {
			return fmt.Errorf("unbound recursion variable %s", t.Name)
		}
		if bk != kind {
			return fmt.Errorf("recursion variable %s bound as %s but used as %s", t.Name, bk, kind)
		}
		return nil
	case Union:
		if err := w.check(t.L, kind, recVars); err != nil {
			return err
		}
		return w.check(t.R, kind, recVars)
	case Pi:
		// [T-Π] and [Tπ-Π]: the domain is a type; the codomain may be a
		// type or a π-type, and either way the whole Π is a *type*.
		if kind != KindType {
			return fmt.Errorf("function type %s is a type, not a π-type", t)
		}
		if err := w.check(t.Dom, KindType, recVars); err != nil {
			return fmt.Errorf("in domain of %s: %w", t, err)
		}
		env := w.env
		cod := t.Cod
		if t.Var != "" {
			var bound string
			env, bound = w.env.ExtendFresh(t.Var, t.Dom)
			if bound != t.Var {
				// α-rename to respect the Barendregt convention.
				cod = Subst(cod, t.Var, Var{Name: bound})
			}
		}
		inner := &wfChecker{env: env}
		if err := inner.check(cod, KindType, recVars); err == nil {
			return nil
		}
		if err := inner.check(cod, KindProc, recVars); err != nil {
			return fmt.Errorf("in codomain of Π: %w", err)
		}
		return nil
	case Rec:
		// [T-µ] / [π-µ]: contractive, and the variable must not occur in
		// negative position.
		if err := checkContractive(t); err != nil {
			return err
		}
		if occursNegative(t.Body, t.Var, false) {
			return fmt.Errorf("recursion variable %s occurs in negative position in %s", t.Var, t)
		}
		inner := copyKindMap(recVars)
		inner[t.Var] = kind
		return w.check(t.Body, kind, inner)
	case ChanIO:
		return w.checkChan(t.Elem, kind, recVars)
	case ChanI:
		return w.checkChan(t.Elem, kind, recVars)
	case ChanO:
		return w.checkChan(t.Elem, kind, recVars)
	case Out:
		if kind != KindProc {
			return fmt.Errorf("output type %s is a π-type, not a type", t)
		}
		return w.checkOut(t, recVars)
	case In:
		if kind != KindProc {
			return fmt.Errorf("input type %s is a π-type, not a type", t)
		}
		return w.checkIn(t, recVars)
	case Par:
		if kind != KindProc {
			return fmt.Errorf("parallel type %s is a π-type, not a type", t)
		}
		if err := w.check(t.L, KindProc, recVars); err != nil {
			return err
		}
		return w.check(t.R, KindProc, recVars)
	default:
		return fmt.Errorf("unknown type %T", t)
	}
}

func (w *wfChecker) checkChan(elem Type, kind Kind, recVars map[string]Kind) error {
	if kind != KindType {
		return fmt.Errorf("channel type is a type, not a π-type")
	}
	// [T-c]: the payload must itself be a valid type.
	return w.check(elem, KindType, recVars)
}

// checkOut implements [π-o]: Γ ⊢ S ⩽ co[To], Γ ⊢ T ⩽ To, Γ ⊢ U π-type,
// where the continuation is the thunk Π()U.
func (w *wfChecker) checkOut(t Out, recVars map[string]Kind) error {
	cap, ok := ResolveChan(w.env, t.Ch)
	if !ok {
		if !containsRecVar(t.Ch, recVars) {
			return fmt.Errorf("output channel position %s does not resolve to a channel type", t.Ch)
		}
	} else {
		if !cap.Out {
			return fmt.Errorf("channel type %s does not permit output", t.Ch)
		}
		if err := w.check(t.Payload, KindType, recVars); err != nil {
			// Payload may also be a recursion-variable placeholder in
			// open recursive bodies; tolerate and defer to closed check.
			if !containsRecVar(t.Payload, recVars) {
				return fmt.Errorf("in payload of %s: %w", t, err)
			}
		} else if !Subtype(w.env, t.Payload, cap.Payload) {
			return fmt.Errorf("payload %s is not a subtype of channel payload %s", t.Payload, cap.Payload)
		}
	}
	cont, ok := t.Cont.(Pi)
	if !ok || cont.Var != "" {
		if containsRecVar(t.Cont, recVars) {
			return nil
		}
		return fmt.Errorf("output continuation %s must be a thunk type ()->U", t.Cont)
	}
	return w.check(cont.Cod, KindProc, recVars)
}

// checkIn implements [π-i]: Γ ⊢ S ⩽ ci[Ti], Γ ⊢ Ti ⩽ T, and
// Γ, x:T ⊢ U π-type for continuation Π(x:T)U.
func (w *wfChecker) checkIn(t In, recVars map[string]Kind) error {
	cont, ok := t.Cont.(Pi)
	if !ok {
		return fmt.Errorf("input continuation %s must be a dependent function type", t.Cont)
	}
	cap, ok := ResolveChan(w.env, t.Ch)
	if ok {
		if !cap.In {
			return fmt.Errorf("channel type %s does not permit input", t.Ch)
		}
		if !Subtype(w.env, cap.Payload, cont.Dom) {
			return fmt.Errorf("channel payload %s is not a subtype of continuation domain %s", cap.Payload, cont.Dom)
		}
	} else if !containsRecVar(t.Ch, recVars) {
		return fmt.Errorf("input channel position %s does not resolve to a channel type", t.Ch)
	}
	env := w.env
	cod := cont.Cod
	if cont.Var != "" {
		var bound string
		env, bound = w.env.ExtendFresh(cont.Var, cont.Dom)
		if bound != cont.Var {
			cod = Subst(cod, cont.Var, Var{Name: bound})
		}
	}
	inner := &wfChecker{env: env}
	return inner.check(cod, KindProc, recVars)
}

// checkContractive rejects µt.µt'...(t ∨ U) per the side condition of
// [T-µ]: the body must not be (equivalent to) a bare recursion variable
// or a union exposing one.
func checkContractive(r Rec) error {
	body := r.Body
	for {
		switch b := body.(type) {
		case RecVar:
			return fmt.Errorf("non-contractive recursive type %s", r)
		case Rec:
			body = b.Body
		case Union:
			for _, leaf := range FlattenUnion(b) {
				if _, ok := leaf.(RecVar); ok {
					return fmt.Errorf("non-contractive recursive type %s: recursion variable exposed in union", r)
				}
			}
			return nil
		default:
			return nil
		}
	}
}

// occursNegative reports whether recursion variable name occurs at
// negative polarity in t (the x ∉ fv⁻(T) condition of [T-µ]/[π-µ]).
// Output-channel payloads are contravariant; cio payloads and Π domains
// are invariant (counted as both polarities).
func occursNegative(t Type, name string, neg bool) bool {
	switch t := t.(type) {
	case RecVar:
		return neg && t.Name == name
	case Pi:
		return occursBoth(t.Dom, name) || occursNegative(t.Cod, name, neg)
	case Rec:
		if t.Var == name {
			return false
		}
	case ChanIO:
		return occursBoth(t.Elem, name)
	case ChanO:
		return occursNegative(t.Elem, name, !neg)
	}
	return !EachChild(t, func(c Type) bool { return !occursNegative(c, name, neg) })
}

func occursBoth(t Type, name string) bool {
	return occursNegative(t, name, false) || occursNegative(t, name, true)
}

func containsRecVar(t Type, recVars map[string]Kind) bool {
	for name := range FreeRecVars(t) {
		if _, ok := recVars[name]; ok {
			return true
		}
	}
	return false
}

func copyKindMap(m map[string]Kind) map[string]Kind {
	c := make(map[string]Kind, len(m)+1)
	for k, v := range m {
		c[k] = v
	}
	return c
}

// CheckGuarded verifies the guardedness condition of Lemma 4.7: for every
// π-type subterm µt.U of t, the variable t may occur in U only under an
// input or output constructor. Guarded types have decidable µ-calculus
// model checking.
func CheckGuarded(t Type) error {
	return checkGuarded(t, nil)
}

// checkGuarded walks t; unguarded lists the recursion variables bound
// above t that no i[...]/o[...] constructor has crossed yet.
func checkGuarded(t Type, unguarded []string) error {
	switch t := t.(type) {
	case RecVar:
		if slices.Contains(unguarded, t.Name) {
			return fmt.Errorf("recursion variable %s occurs unguarded (not under i[...] or o[...])", t.Name)
		}
		return nil
	case Rec:
		unguarded = append(unguarded, t.Var)
	case Out, In:
		// Every subterm of an output or input, the continuation included,
		// is guarded by it.
		unguarded = nil
	}
	var err error
	EachChild(t, func(c Type) bool {
		err = checkGuarded(c, unguarded)
		return err == nil
	})
	return err
}

// CheckFiniteControl enforces the implementation restriction of §5.1
// (known limitation 2): no parallel composition p[...] under a recursion
// binder µ. Types violating it may have unbounded parallel components and
// an infinite state space.
func CheckFiniteControl(t Type) error {
	return checkFiniteControl(t, false)
}

func checkFiniteControl(t Type, underRec bool) error {
	switch u := t.(type) {
	case Par:
		if underRec {
			return fmt.Errorf("parallel composition under recursion is not supported by the verifier (paper §5.1, limitation 2)")
		}
	case Rec:
		underRec = true
	case Out:
		// The channel subject names a channel and spawns nothing, so only
		// the payload and the continuation are walked.
		if err := checkFiniteControl(u.Payload, underRec); err != nil {
			return err
		}
		return checkFiniteControl(u.Cont, underRec)
	case In:
		return checkFiniteControl(u.Cont, underRec)
	}
	var err error
	EachChild(t, func(c Type) bool {
		err = checkFiniteControl(c, underRec)
		return err == nil
	})
	return err
}
