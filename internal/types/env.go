package types

import (
	"fmt"
	"sort"
	"strings"
)

// Env is a typing environment Γ: a finite map from term variables to
// types (Def. 3.2). Entry order is immaterial for the judgements; Env
// additionally remembers insertion order for readable error messages and
// deterministic iteration.
type Env struct {
	names []string
	table map[string]Type
}

// NewEnv returns an empty typing environment.
func NewEnv() *Env {
	return &Env{table: make(map[string]Type)}
}

// EnvOf builds an environment from alternating name/type pairs, in order.
// It panics on duplicate names, mirroring rule [Γ-x]'s side condition
// x ∉ dom(Γ).
func EnvOf(bindings ...any) *Env {
	if len(bindings)%2 != 0 {
		panic("types.EnvOf: odd number of arguments")
	}
	e := NewEnv()
	for i := 0; i < len(bindings); i += 2 {
		name, ok := bindings[i].(string)
		if !ok {
			panic(fmt.Sprintf("types.EnvOf: argument %d is not a string", i))
		}
		t, ok := bindings[i+1].(Type)
		if !ok {
			panic(fmt.Sprintf("types.EnvOf: argument %d is not a Type", i+1))
		}
		var err error
		e, err = e.Extend(name, t)
		if err != nil {
			panic(err)
		}
	}
	return e
}

// Lookup returns the type bound to name, if any.
func (e *Env) Lookup(name string) (Type, bool) {
	if e == nil {
		return nil, false
	}
	t, ok := e.table[name]
	return t, ok
}

// Has reports whether name ∈ dom(Γ).
func (e *Env) Has(name string) bool {
	_, ok := e.Lookup(name)
	return ok
}

// Extend returns a new environment Γ, x:T. The receiver is not modified.
// It fails if x ∈ dom(Γ) (rule [Γ-x]).
func (e *Env) Extend(name string, t Type) (*Env, error) {
	if name == "" {
		return nil, fmt.Errorf("types: cannot bind empty variable name")
	}
	if e.Has(name) {
		return nil, fmt.Errorf("types: variable %q already bound in environment", name)
	}
	ne := &Env{
		names: make([]string, len(e.names), len(e.names)+1),
		table: make(map[string]Type, len(e.table)+1),
	}
	copy(ne.names, e.names)
	for k, v := range e.table {
		ne.table[k] = v
	}
	ne.names = append(ne.names, name)
	ne.table[name] = t
	return ne, nil
}

// MustExtend is Extend for statically-known-fresh names; it panics on error.
func (e *Env) MustExtend(name string, t Type) *Env {
	ne, err := e.Extend(name, t)
	if err != nil {
		panic(err)
	}
	return ne
}

// ExtendFresh binds name if fresh, or an α-renamed fresh variant
// otherwise, returning the environment and the name actually bound.
func (e *Env) ExtendFresh(name string, t Type) (*Env, string) {
	if name == "" {
		name = "x"
	}
	bound := name
	if e.Has(bound) {
		bound = FreshName(name)
	}
	return e.MustExtend(bound, t), bound
}

// Names returns the bound variable names in insertion order.
func (e *Env) Names() []string {
	if e == nil {
		return nil
	}
	out := make([]string, len(e.names))
	copy(out, e.names)
	return out
}

// Witnesses returns, in insertion order, the variables x ∈ dom(Γ) with
// Γ ⊢ x̱ ⩽ t: the environment witnesses of t, which early input ([T→i])
// may receive in place of an anonymous t-typed value.
func (e *Env) Witnesses(t Type) []string {
	var out []string
	for _, n := range e.Names() {
		if Subtype(e, Var{Name: n}, t) {
			out = append(out, n)
		}
	}
	return out
}

// Len returns |dom(Γ)|.
func (e *Env) Len() int {
	if e == nil {
		return 0
	}
	return len(e.names)
}

// String renders the environment as "x1: T1, x2: T2, ...".
func (e *Env) String() string {
	if e == nil || len(e.names) == 0 {
		return "∅"
	}
	parts := make([]string, len(e.names))
	for i, n := range e.names {
		parts[i] = fmt.Sprintf("%s: %s", n, e.table[n])
	}
	return strings.Join(parts, ", ")
}

// Key returns a canonical identity string for the environment, used to
// memoise judgements that depend on Γ. Names are sorted because entry
// order is immaterial.
func (e *Env) Key() string {
	if e == nil {
		return ""
	}
	names := make([]string, len(e.names))
	copy(names, e.names)
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		b.WriteString(n)
		b.WriteString(":")
		b.WriteString(Canon(e.table[n]))
		b.WriteString(";")
	}
	return b.String()
}
