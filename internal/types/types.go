// Package types implements the type language of the λπ⩽ calculus from
// "Verifying Message-Passing Programs with Dependent Behavioural Types"
// (Scalas, Yoshida, Benussi; PLDI 2019), Definition 3.1.
//
// The type syntax blends ordinary functional types (booleans, unit, unions,
// dependent function types Π(x:U)T, equi-recursive types µt.T), channel
// types (cio/ci/co), and behavioural process types (nil, o[S,T,U], i[S,T],
// p[T,U], proc). Its distinguishing feature is that types may contain *term
// variables* (Var): the type x̱ is the singleton, most-precise type of the
// term variable x, which is how the system tracks which channels a process
// uses, and when.
//
// As extensions (anticipated by the paper, §2: "λπ⩽ can be routinely
// extended with, e.g., integers, strings") the package also provides Int
// and Str base types, used pervasively in the paper's own examples.
package types

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Type is a λπ⩽ type (Def. 3.1).
//
// The implementations are:
//
//	Bool, Unit, Int, Str          base types
//	Top, Bottom                   ⊤ and ⊥
//	Union                         T ∨ U
//	Pi                            dependent function type Π(x:U)T
//	Rec, RecVar                   equi-recursive type µt.T and its variable t
//	Var                           a term variable x used as a type (x̱)
//	ChanIO, ChanI, ChanO          channel types cio[T], ci[T], co[T]
//	Proc, Nil                     generic and terminated process types
//	Out                           output process type o[S,T,U]
//	In                            input process type i[S,T]
//	Par                           parallel process type p[T,U]
type Type interface {
	typ()
	String() string
}

// Bool is the type of booleans.
type Bool struct{}

// Unit is the unit type ().
type Unit struct{}

// Int is the integer base type (paper §2 extension).
type Int struct{}

// Str is the string base type (paper §2 extension).
type Str struct{}

// Top is the top type ⊤.
type Top struct{}

// Bottom is the bottom type ⊥.
type Bottom struct{}

// Union is the union type T ∨ U.
type Union struct{ L, R Type }

// Pi is the dependent function type Π(x:Dom)Cod. The bound variable Var
// may occur free in Cod (as a Var type). A thunk type Π()T is represented
// with Var == "" and Dom == Unit.
type Pi struct {
	Var string
	Dom Type
	Cod Type
}

// Rec is the equi-recursive type µt.Body; RecVar{t} refers to the binder.
type Rec struct {
	Var  string
	Body Type
}

// RecVar is an occurrence of a recursion variable bound by Rec.
type RecVar struct{ Name string }

// Var is a term variable used as a type: the singleton type x̱ of the term
// variable x (paper Def. 3.1, underlined x).
type Var struct{ Name string }

// ChanIO is the channel type cio[T]: input or output of T-typed values.
type ChanIO struct{ Elem Type }

// ChanI is the input-only channel type ci[T].
type ChanI struct{ Elem Type }

// ChanO is the output-only channel type co[T].
type ChanO struct{ Elem Type }

// Proc is the generic process type proc (top of the π-types).
type Proc struct{}

// Nil is the type of the terminated process end.
type Nil struct{}

// Out is the output process type o[Ch, Payload, Cont]: send a Payload-typed
// value on a Ch-typed channel and continue as Cont (a thunk type Π()U).
type Out struct {
	Ch      Type
	Payload Type
	Cont    Type
}

// In is the input process type i[Ch, Cont]: receive from a Ch-typed channel
// and continue as Cont, which must be a dependent function type Π(x:T)U so
// that the received value is bound to x in the continuation's type U.
type In struct {
	Ch   Type
	Cont Type
}

// Par is the parallel composition type p[L, R].
type Par struct{ L, R Type }

func (Bool) typ()   {}
func (Unit) typ()   {}
func (Int) typ()    {}
func (Str) typ()    {}
func (Top) typ()    {}
func (Bottom) typ() {}
func (Union) typ()  {}
func (Pi) typ()     {}
func (Rec) typ()    {}
func (RecVar) typ() {}
func (Var) typ()    {}
func (ChanIO) typ() {}
func (ChanI) typ()  {}
func (ChanO) typ()  {}
func (Proc) typ()   {}
func (Nil) typ()    {}
func (Out) typ()    {}
func (In) typ()     {}
func (Par) typ()    {}

func (Bool) String() string   { return "Bool" }
func (Unit) String() string   { return "Unit" }
func (Int) String() string    { return "Int" }
func (Str) String() string    { return "Str" }
func (Top) String() string    { return "Top" }
func (Bottom) String() string { return "Bot" }

func (u Union) String() string { return fmt.Sprintf("(%s | %s)", u.L, u.R) }

func (p Pi) String() string {
	if p.Var == "" {
		return fmt.Sprintf("(() -> %s)", p.Cod)
	}
	return fmt.Sprintf("((%s: %s) -> %s)", p.Var, p.Dom, p.Cod)
}

func (r Rec) String() string    { return fmt.Sprintf("rec %s. %s", r.Var, r.Body) }
func (r RecVar) String() string { return r.Name }
func (v Var) String() string    { return v.Name }

func (c ChanIO) String() string { return fmt.Sprintf("Chan[%s]", c.Elem) }
func (c ChanI) String() string  { return fmt.Sprintf("IChan[%s]", c.Elem) }
func (c ChanO) String() string  { return fmt.Sprintf("OChan[%s]", c.Elem) }

func (Proc) String() string { return "Proc" }
func (Nil) String() string  { return "Nil" }

func (o Out) String() string { return fmt.Sprintf("Out[%s, %s, %s]", o.Ch, o.Payload, o.Cont) }
func (i In) String() string  { return fmt.Sprintf("In[%s, %s]", i.Ch, i.Cont) }
func (p Par) String() string { return fmt.Sprintf("Par[%s, %s]", p.L, p.R) }

// Thunk builds the thunk type Π()T used as the continuation of outputs.
func Thunk(t Type) Pi { return Pi{Var: "", Dom: Unit{}, Cod: t} }

// UnionOf folds a list of types into a right-nested union. It returns
// Bottom for an empty list and the sole element for a singleton.
func UnionOf(ts ...Type) Type {
	if len(ts) == 0 {
		return Bottom{}
	}
	t := ts[len(ts)-1]
	for i := len(ts) - 2; i >= 0; i-- {
		t = Union{L: ts[i], R: t}
	}
	return t
}

// ParOf folds a list of types into a right-nested parallel composition.
// It returns Nil for an empty list and the sole element for a singleton.
func ParOf(ts ...Type) Type {
	if len(ts) == 0 {
		return Nil{}
	}
	t := ts[len(ts)-1]
	for i := len(ts) - 2; i >= 0; i-- {
		t = Par{L: ts[i], R: t}
	}
	return t
}

// FlattenUnion returns the leaves of a (possibly nested) union.
func FlattenUnion(t Type) []Type {
	if u, ok := t.(Union); ok {
		return append(FlattenUnion(u.L), FlattenUnion(u.R)...)
	}
	return []Type{t}
}

// FlattenPar returns the non-nil leaves of a (possibly nested) parallel
// composition, implementing the congruences p[S,p[T,U]] ≡ p[p[S,T],U] and
// p[T,nil] ≡ T. A fully terminated composition flattens to an empty slice.
// The leaves are counted first, so the result is allocated once.
func FlattenPar(t Type) []Type {
	n := countPar(t)
	if n == 0 {
		return nil
	}
	return AppendParLeaves(make([]Type, 0, n), t)
}

// countPar returns the number of non-nil leaves of a parallel composition.
func countPar(t Type) int {
	switch t := t.(type) {
	case Par:
		return countPar(t.L) + countPar(t.R)
	case Nil:
		return 0
	default:
		return 1
	}
}

// AppendParLeaves appends the non-nil leaves of a parallel composition
// to out, as FlattenPar returns them.
func AppendParLeaves(out []Type, t Type) []Type {
	switch t := t.(type) {
	case Par:
		return AppendParLeaves(AppendParLeaves(out, t.L), t.R)
	case Nil:
		return out
	default:
		return append(out, t)
	}
}

// EachChild calls f on each immediate subterm of t, in order — L,R of
// ∨ and p[…]; Dom,Cod of Π; Body of µ; Elem of the channel types;
// Ch,Payload,Cont of o[…]; Ch,Cont of i[…] — until f returns false. It
// reports whether every call returned true. EachChild and MapChildren
// are the one place that knows each constructor's subterms: a walker
// handles the constructors it treats specially and hands the rest here.
func EachChild(t Type, f func(Type) bool) bool {
	switch t := t.(type) {
	case Union:
		return f(t.L) && f(t.R)
	case Pi:
		return f(t.Dom) && f(t.Cod)
	case Rec:
		return f(t.Body)
	case ChanIO:
		return f(t.Elem)
	case ChanI:
		return f(t.Elem)
	case ChanO:
		return f(t.Elem)
	case Out:
		return f(t.Ch) && f(t.Payload) && f(t.Cont)
	case In:
		return f(t.Ch) && f(t.Cont)
	case Par:
		return f(t.L) && f(t.R)
	}
	return true
}

// MapChildren returns t rebuilt with each immediate subterm c replaced
// by f(c), calling f in EachChild's order. A type without subterms is
// returned as is.
func MapChildren(t Type, f func(Type) Type) Type {
	switch t := t.(type) {
	case Union:
		return Union{L: f(t.L), R: f(t.R)}
	case Pi:
		return Pi{Var: t.Var, Dom: f(t.Dom), Cod: f(t.Cod)}
	case Rec:
		return Rec{Var: t.Var, Body: f(t.Body)}
	case ChanIO:
		return ChanIO{Elem: f(t.Elem)}
	case ChanI:
		return ChanI{Elem: f(t.Elem)}
	case ChanO:
		return ChanO{Elem: f(t.Elem)}
	case Out:
		return Out{Ch: f(t.Ch), Payload: f(t.Payload), Cont: f(t.Cont)}
	case In:
		return In{Ch: f(t.Ch), Cont: f(t.Cont)}
	case Par:
		return Par{L: f(t.L), R: f(t.R)}
	}
	return t
}

// FreeVars returns the set of free term variables (Var) of t.
func FreeVars(t Type) map[string]bool {
	fv := make(map[string]bool)
	walkFreeVars(t, nil, func(n string) { fv[n] = true })
	return fv
}

// FreeVarsInOrder returns the free term variables of t in the order of
// their first mention, without repeats.
func FreeVarsInOrder(t Type) []string {
	var out []string
	walkFreeVars(t, nil, func(n string) {
		if !slices.Contains(out, n) {
			out = append(out, n)
		}
	})
	return out
}

// walkFreeVars calls visit on every free term-variable occurrence of t,
// in pre-order; bound lists the Π-binders above t.
func walkFreeVars(t Type, bound []string, visit func(string)) {
	switch t := t.(type) {
	case Var:
		if !slices.Contains(bound, t.Name) {
			visit(t.Name)
		}
		return
	case Pi:
		if t.Var != "" {
			walkFreeVars(t.Dom, bound, visit)
			walkFreeVars(t.Cod, append(bound, t.Var), visit)
			return
		}
	}
	EachChild(t, func(c Type) bool { walkFreeVars(c, bound, visit); return true })
}

// FreeRecVars returns the set of free recursion variables (RecVar) of t.
func FreeRecVars(t Type) map[string]bool {
	fv := make(map[string]bool)
	freeRecVars(t, nil, fv)
	return fv
}

func freeRecVars(t Type, bound []string, out map[string]bool) {
	switch t := t.(type) {
	case RecVar:
		if !slices.Contains(bound, t.Name) {
			out[t.Name] = true
		}
		return
	case Rec:
		bound = append(bound, t.Var)
	}
	EachChild(t, func(c Type) bool { freeRecVars(c, bound, out); return true })
}

// ReplaceVars returns t with every Var occurrence whose name m maps
// replaced by its image. It does not look at binders, so a caller must
// know that no key is bound in t and that no image can be captured.
func ReplaceVars(t Type, m map[string]Type) Type {
	if v, ok := t.(Var); ok {
		if r, ok := m[v.Name]; ok {
			return r
		}
		return t
	}
	return MapChildren(t, func(c Type) Type { return ReplaceVars(c, m) })
}

// Canon renders t to a canonical string: parallel compositions are
// flattened (dropping nil) and sorted, unions are flattened and sorted
// (keeping repeated leaves: T ∨ T is not T under τ[∨]), and binders are
// renamed to positional names. Two types with equal Canon
// strings are equivalent under the congruence ≡ of Def. 3.1 restricted to
// the AC laws (µ-unfolding is *not* applied, so Canon is a sound but
// incomplete ≡-check; subtyping handles unfolding separately).
func Canon(t Type) string {
	var b strings.Builder
	canon(t, map[string]string{}, 0, &b)
	return b.String()
}

func canon(t Type, rn map[string]string, depth int, b *strings.Builder) {
	switch t := t.(type) {
	case Bool:
		b.WriteString("B")
	case Unit:
		b.WriteString("U")
	case Int:
		b.WriteString("Z")
	case Str:
		b.WriteString("S")
	case Top:
		b.WriteString("⊤")
	case Bottom:
		b.WriteString("⊥")
	case Proc:
		b.WriteString("P")
	case Nil:
		b.WriteString("0")
	case Var:
		if r, ok := rn[t.Name]; ok {
			b.WriteString(r)
		} else {
			b.WriteString("v!")
			b.WriteString(t.Name)
		}
	case RecVar:
		if r, ok := rn[t.Name]; ok {
			b.WriteString(r)
		} else {
			b.WriteString("µ!")
			b.WriteString(t.Name)
		}
	case Union:
		leaves := FlattenUnion(t)
		parts := make([]string, len(leaves))
		for i, l := range leaves {
			var sb strings.Builder
			canon(l, rn, depth, &sb)
			parts[i] = sb.String()
		}
		sort.Strings(parts)
		b.WriteString("∨(")
		b.WriteString(strings.Join(parts, ","))
		b.WriteString(")")
	case Par:
		leaves := FlattenPar(t)
		if len(leaves) == 0 {
			b.WriteString("0")
			return
		}
		parts := make([]string, len(leaves))
		for i, l := range leaves {
			var sb strings.Builder
			canon(l, rn, depth, &sb)
			parts[i] = sb.String()
		}
		sort.Strings(parts)
		if len(parts) == 1 {
			b.WriteString(parts[0])
			return
		}
		b.WriteString("‖(")
		b.WriteString(strings.Join(parts, ","))
		b.WriteString(")")
	case Pi:
		b.WriteString("Π(")
		if t.Var == "" {
			b.WriteString("_:")
			canon(t.Dom, rn, depth, b)
			b.WriteString(")")
			canon(t.Cod, rn, depth, b)
			return
		}
		fresh := fmt.Sprintf("π%d", depth)
		b.WriteString(fresh)
		b.WriteString(":")
		canon(t.Dom, rn, depth, b)
		b.WriteString(")")
		inner := copyStrMap(rn)
		inner[t.Var] = fresh
		canon(t.Cod, inner, depth+1, b)
	case Rec:
		fresh := fmt.Sprintf("µ%d", depth)
		b.WriteString("µ")
		b.WriteString(fresh)
		b.WriteString(".")
		inner := copyStrMap(rn)
		inner[t.Var] = fresh
		canon(t.Body, inner, depth+1, b)
	case ChanIO:
		b.WriteString("c*[")
		canon(t.Elem, rn, depth, b)
		b.WriteString("]")
	case ChanI:
		b.WriteString("c?[")
		canon(t.Elem, rn, depth, b)
		b.WriteString("]")
	case ChanO:
		b.WriteString("c![")
		canon(t.Elem, rn, depth, b)
		b.WriteString("]")
	case Out:
		b.WriteString("o[")
		canon(t.Ch, rn, depth, b)
		b.WriteString(",")
		canon(t.Payload, rn, depth, b)
		b.WriteString(",")
		canon(t.Cont, rn, depth, b)
		b.WriteString("]")
	case In:
		b.WriteString("i[")
		canon(t.Ch, rn, depth, b)
		b.WriteString(",")
		canon(t.Cont, rn, depth, b)
		b.WriteString("]")
	default:
		b.WriteString(fmt.Sprintf("?%T", t))
	}
}

func copyStrMap(m map[string]string) map[string]string {
	c := make(map[string]string, len(m)+1)
	for k, v := range m {
		c[k] = v
	}
	return c
}

// Equal reports whether two types are equivalent under the AC fragment of
// the congruence ≡ (union/parallel commutativity and associativity,
// p[T,nil] ≡ T, α-conversion of binders). It does not unfold µ-types.
func Equal(a, b Type) bool { return Canon(a) == Canon(b) }

// IsNilPar reports whether t is a (possibly nested, possibly empty)
// parallel composition of nil processes, i.e. t ≡ nil.
func IsNilPar(t Type) bool { return len(FlattenPar(t)) == 0 && isParOrNil(t) }

func isParOrNil(t Type) bool {
	switch t := t.(type) {
	case Nil:
		return true
	case Par:
		return isParOrNil(t.L) && isParOrNil(t.R)
	default:
		return false
	}
}
