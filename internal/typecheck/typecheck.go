// Package typecheck implements the typing judgement Γ ⊢ t : T of the λπ⩽
// calculus (PLDI 2019, Fig. 4).
//
// The checker is syntax-driven and infers *minimal* types: a term variable
// x gets the singleton type x̱ ([t-x]), so the types of processes record
// exactly which channels they use — the paper's key device for tracking
// channel usage across transmissions. Subsumption ([t-⩽]) is applied at
// the leaves of elimination forms via subtype checks.
package typecheck

import (
	"fmt"

	"effpi/internal/term"
	"effpi/internal/types"
)

// Infer computes the minimal type of t in env, implementing the
// syntax-driven reading of Fig. 4.
func Infer(env *types.Env, t term.Term) (types.Type, error) {
	switch t := t.(type) {
	case term.Var:
		if !env.Has(t.Name) {
			return nil, fmt.Errorf("unbound variable %s", t.Name)
		}
		return types.Var{Name: t.Name}, nil // [t-x]: x : x̱

	case term.BoolLit:
		return types.Bool{}, nil // [t-B]
	case term.IntLit:
		return types.Int{}, nil
	case term.StrLit:
		return types.Str{}, nil
	case term.UnitVal:
		return types.Unit{}, nil // [t-()]

	case term.Err:
		return nil, fmt.Errorf("the error value has no type (well-typed terms are safe, Thm. 3.6)")

	case term.ChanVal:
		// [t-C]: a^T : cio[T]
		if err := types.CheckType(env, t.Elem); err != nil {
			return nil, fmt.Errorf("channel instance %s: %w", t.Name, err)
		}
		return types.ChanIO{Elem: t.Elem}, nil

	case term.NewChan:
		// [t-chan]: chan()^T : cio[T]
		if err := types.CheckType(env, t.Elem); err != nil {
			return nil, fmt.Errorf("chan(): %w", err)
		}
		return types.ChanIO{Elem: t.Elem}, nil

	case term.Lam:
		return inferLam(env, t)

	case term.Not:
		// [t-¬]
		if err := checkSub(env, t.T, types.Bool{}); err != nil {
			return nil, fmt.Errorf("operand of !: %w", err)
		}
		return types.Bool{}, nil

	case term.BinOp:
		return inferBinOp(env, t)

	case term.If:
		// [t-if]: the result is the union of the branch types.
		if err := checkSub(env, t.Cond, types.Bool{}); err != nil {
			return nil, fmt.Errorf("condition of if: %w", err)
		}
		thenT, err := Infer(env, t.Then)
		if err != nil {
			return nil, err
		}
		elseT, err := Infer(env, t.Else)
		if err != nil {
			return nil, err
		}
		if types.Equal(thenT, elseT) {
			return thenT, nil
		}
		return types.Union{L: thenT, R: elseT}, nil

	case term.Let:
		return inferLet(env, t)

	case term.App:
		return inferApp(env, t)

	case term.End:
		return types.Nil{}, nil // [t-end]

	case term.Send:
		return inferSend(env, t)

	case term.Recv:
		return inferRecv(env, t)

	case term.Par:
		// [t-||]: both components must be π-typed.
		lt, err := Infer(env, t.L)
		if err != nil {
			return nil, err
		}
		rt, err := Infer(env, t.R)
		if err != nil {
			return nil, err
		}
		p := types.Par{L: lt, R: rt}
		if err := types.CheckProcType(env, p); err != nil {
			return nil, fmt.Errorf("parallel composition: %w", err)
		}
		return p, nil

	default:
		return nil, fmt.Errorf("cannot type term %T", t)
	}
}

// Check verifies Γ ⊢ t : want, combining Infer with subsumption [t-⩽].
func Check(env *types.Env, t term.Term, want types.Type) error {
	got, err := Infer(env, t)
	if err != nil {
		return err
	}
	if !types.Subtype(env, got, want) {
		return fmt.Errorf("type mismatch:\n  inferred %s\n  expected %s", got, want)
	}
	return nil
}

func inferLam(env *types.Env, t term.Lam) (types.Type, error) {
	if t.Ann == nil {
		return nil, fmt.Errorf("λ%s: parameter needs a type annotation", t.Var)
	}
	if err := types.CheckType(env, t.Ann); err != nil {
		return nil, fmt.Errorf("annotation of λ%s: %w", t.Var, err)
	}
	body := t.Body
	v := t.Var
	// λ_.t abbreviates λx.t with x ∉ fv(t) (paper Def. 2.1): produce the
	// thunk type Π()T in that case.
	thunk := v == "_" || !term.FreeVars(body)[v]
	if v == "_" {
		v = types.FreshName("u")
	}
	inner, bound := env.ExtendFresh(v, t.Ann)
	if bound != v {
		body = term.Subst(body, v, term.Var{Name: bound})
	}
	bodyT, err := Infer(inner, body)
	if err != nil {
		return nil, err
	}
	if thunk && isUnit(t.Ann) && !types.OccursFree(bodyT, bound) {
		return types.Thunk(bodyT), nil
	}
	return types.Pi{Var: bound, Dom: t.Ann, Cod: bodyT}, nil
}

func inferLet(env *types.Env, t term.Let) (types.Type, error) {
	if t.Ann == nil {
		// Without an annotation, the let cannot be recursive: type the
		// bound term first, then bind its inferred type.
		boundT, err := Infer(env, t.Bound)
		if err != nil {
			return nil, fmt.Errorf("in let %s: %w", t.Var, err)
		}
		body := t.Body
		inner, bound := env.ExtendFresh(t.Var, boundT)
		if bound != t.Var {
			body = term.Subst(body, t.Var, term.Var{Name: bound})
		}
		bodyT, err := Infer(inner, body)
		if err != nil {
			return nil, err
		}
		return types.Subst(bodyT, bound, boundT), nil
	}
	// [t-let] with annotation U: Γ,x:U ⊢ t : U′ ⩽ U and Γ,x:U ⊢ t′ : T,
	// giving T{U′/x}. The bound term may refer to x (recursion).
	if err := types.CheckType(env, t.Ann); err != nil {
		return nil, fmt.Errorf("annotation of let %s: %w", t.Var, err)
	}
	boundTerm, body := t.Bound, t.Body
	inner, bv := env.ExtendFresh(t.Var, t.Ann)
	if bv != t.Var {
		boundTerm = term.Subst(boundTerm, t.Var, term.Var{Name: bv})
		body = term.Subst(body, t.Var, term.Var{Name: bv})
	}
	boundT, err := Infer(inner, boundTerm)
	if err != nil {
		return nil, fmt.Errorf("in let %s: %w", t.Var, err)
	}
	if !types.Subtype(inner, boundT, t.Ann) {
		return nil, fmt.Errorf("let %s: bound term has type %s, not a subtype of annotation %s", t.Var, boundT, t.Ann)
	}
	bodyT, err := Infer(inner, body)
	if err != nil {
		return nil, err
	}
	// When the bound term's precise type still mentions x (recursive
	// definitions), substituting it would not eliminate the variable;
	// fall back to the annotation, which is closed w.r.t. x.
	u := boundT
	if types.OccursFree(u, bv) {
		u = t.Ann
	}
	return types.Subst(bodyT, bv, u), nil
}

func inferApp(env *types.Env, t term.App) (types.Type, error) {
	fnT, err := Infer(env, t.Fn)
	if err != nil {
		return nil, err
	}
	pi, err := resolvePi(env, fnT)
	if err != nil {
		return nil, fmt.Errorf("cannot apply %s: %w", t.Fn, err)
	}
	argT, err := Infer(env, t.Arg)
	if err != nil {
		return nil, err
	}
	if !types.Subtype(env, argT, pi.Dom) {
		return nil, fmt.Errorf("argument %s has type %s, not a subtype of parameter type %s", t.Arg, argT, pi.Dom)
	}
	// [t-app]: the result is T{U′/x} where U′ is the argument's minimal
	// type — the type-level application that composes protocols (Ex. 3.3).
	if pi.Var == "" {
		return pi.Cod, nil
	}
	return types.Subst(pi.Cod, pi.Var, argT), nil
}

func inferSend(env *types.Env, t term.Send) (types.Type, error) {
	chT, err := Infer(env, t.Ch)
	if err != nil {
		return nil, err
	}
	cap, ok := types.ResolveChan(env, chT)
	if !ok {
		return nil, fmt.Errorf("send: %s has type %s, which is not a channel type", t.Ch, chT)
	}
	if !cap.Out {
		return nil, fmt.Errorf("send: channel type %s does not permit output", chT)
	}
	valT, err := Infer(env, t.Val)
	if err != nil {
		return nil, err
	}
	if !types.Subtype(env, valT, cap.Payload) {
		return nil, fmt.Errorf("send: payload %s has type %s, not a subtype of channel payload %s", t.Val, valT, cap.Payload)
	}
	contT, err := Infer(env, t.Cont)
	if err != nil {
		return nil, err
	}
	thunk, err := resolveThunk(env, contT)
	if err != nil {
		return nil, fmt.Errorf("send continuation: %w", err)
	}
	out := types.Out{Ch: chT, Payload: valT, Cont: thunk}
	if err := types.CheckProcType(env, out); err != nil {
		return nil, fmt.Errorf("send: %w", err)
	}
	return out, nil
}

func inferRecv(env *types.Env, t term.Recv) (types.Type, error) {
	chT, err := Infer(env, t.Ch)
	if err != nil {
		return nil, err
	}
	cap, ok := types.ResolveChan(env, chT)
	if !ok {
		return nil, fmt.Errorf("recv: %s has type %s, which is not a channel type", t.Ch, chT)
	}
	if !cap.In {
		return nil, fmt.Errorf("recv: channel type %s does not permit input", chT)
	}
	contT, err := Infer(env, t.Cont)
	if err != nil {
		return nil, err
	}
	pi, err := resolvePi(env, contT)
	if err != nil {
		return nil, fmt.Errorf("recv continuation: %w", err)
	}
	// [π-i]: the channel's payload must fit the continuation's domain.
	if !types.Subtype(env, cap.Payload, pi.Dom) {
		return nil, fmt.Errorf("recv: channel payload %s is not a subtype of continuation parameter type %s", cap.Payload, pi.Dom)
	}
	in := types.In{Ch: chT, Cont: pi}
	if err := types.CheckProcType(env, in); err != nil {
		return nil, fmt.Errorf("recv: %w", err)
	}
	return in, nil
}

func inferBinOp(env *types.Env, t term.BinOp) (types.Type, error) {
	lt, err := Infer(env, t.L)
	if err != nil {
		return nil, err
	}
	rt, err := Infer(env, t.R)
	if err != nil {
		return nil, err
	}
	isInt := func(x types.Type) bool { return types.Subtype(env, x, types.Int{}) }
	isStr := func(x types.Type) bool { return types.Subtype(env, x, types.Str{}) }
	switch t.Op {
	case "+", "-", "*":
		if isInt(lt) && isInt(rt) {
			return types.Int{}, nil
		}
	case ">", "<", ">=", "<=":
		if isInt(lt) && isInt(rt) {
			return types.Bool{}, nil
		}
	case "==":
		return types.Bool{}, nil
	case "++":
		if isStr(lt) && isStr(rt) {
			return types.Str{}, nil
		}
	default:
		return nil, fmt.Errorf("unknown operator %q", t.Op)
	}
	return nil, fmt.Errorf("operator %q not applicable to %s and %s", t.Op, lt, rt)
}

// resolvePi resolves t (through variables and µ-unfolding) to a dependent
// function type.
func resolvePi(env *types.Env, t types.Type) (types.Pi, error) {
	for i := 0; i < 64; i++ {
		t = types.UnfoldAll(t)
		switch tt := t.(type) {
		case types.Pi:
			return tt, nil
		case types.Var:
			bound, ok := env.Lookup(tt.Name)
			if !ok {
				return types.Pi{}, fmt.Errorf("unbound variable %s", tt.Name)
			}
			t = bound
		default:
			return types.Pi{}, fmt.Errorf("%s is not a function type", t)
		}
	}
	return types.Pi{}, fmt.Errorf("function type resolution diverged")
}

// resolveThunk resolves t to a process thunk type Π()U with U a π-type
// (the shape [π-o] requires of output continuations).
func resolveThunk(env *types.Env, t types.Type) (types.Pi, error) {
	pi, err := resolvePi(env, t)
	if err != nil {
		return types.Pi{}, err
	}
	if pi.Var != "" && types.OccursFree(pi.Cod, pi.Var) {
		return types.Pi{}, fmt.Errorf("continuation %s is not a thunk: it depends on its parameter", t)
	}
	if !isUnit(pi.Dom) {
		return types.Pi{}, fmt.Errorf("continuation %s must take a unit argument", t)
	}
	return types.Thunk(pi.Cod), nil
}

func isUnit(t types.Type) bool {
	_, ok := types.UnfoldAll(t).(types.Unit)
	return ok
}

func checkSub(env *types.Env, t term.Term, want types.Type) error {
	got, err := Infer(env, t)
	if err != nil {
		return err
	}
	if !types.Subtype(env, got, want) {
		return fmt.Errorf("%s has type %s, expected %s", t, got, want)
	}
	return nil
}
