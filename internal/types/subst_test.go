package types

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSubstBasics(t *testing.T) {
	x := Var{Name: "x"}
	// T{S/x} replaces free occurrences only.
	got := Subst(Out{Ch: x, Payload: x, Cont: Thunk(Nil{})}, "x", ChanIO{Elem: Int{}})
	want := Out{Ch: ChanIO{Elem: Int{}}, Payload: ChanIO{Elem: Int{}}, Cont: Thunk(Nil{})}
	if !Equal(got, want) {
		t.Errorf("Subst = %s, want %s", got, want)
	}
	// Bound occurrences are untouched.
	pi := Pi{Var: "x", Dom: Int{}, Cod: x}
	if got := Subst(pi, "x", Bool{}); !Equal(got, pi) {
		t.Errorf("bound variable substituted: %s", got)
	}
	// Thunks have no binder: substitution goes through.
	th := Thunk(Out{Ch: x, Payload: Int{}, Cont: Thunk(Nil{})})
	got = Subst(th, "x", ChanO{Elem: Int{}})
	if FreeVars(got)["x"] {
		t.Errorf("x survived substitution under a thunk: %s", got)
	}
}

func TestSubstCaptureAvoidance(t *testing.T) {
	// (Π(y:int) x̱){y̱/x}: the free y in the substitute must not be
	// captured by the binder.
	pi := Pi{Var: "y", Dom: Int{}, Cod: Var{Name: "x"}}
	got := Subst(pi, "x", Var{Name: "y"}).(Pi)
	if got.Var == "y" {
		t.Fatalf("binder not renamed: %s", got)
	}
	cod, ok := got.Cod.(Var)
	if !ok || cod.Name != "y" {
		t.Errorf("substituted variable wrong: %s", got)
	}
}

func TestUnfoldEquivalence(t *testing.T) {
	rec := Rec{Var: "t", Body: In{Ch: Var{Name: "x"},
		Cont: Pi{Var: "v", Dom: Int{}, Cod: RecVar{Name: "t"}}}}
	u := Unfold(rec)
	in, ok := u.(In)
	if !ok {
		t.Fatalf("Unfold produced %T", u)
	}
	cod := in.Cont.(Pi).Cod
	if !Equal(cod, rec) {
		t.Errorf("unfolding must substitute the µ-type for t, got %s", cod)
	}
	// Unfold of a non-µ type is the identity.
	if !Equal(Unfold(Bool{}), Bool{}) {
		t.Error("Unfold must be identity on non-recursive types")
	}
}

// TestUnfoldCaptureAvoidance: unfolding substitutes the µ-type into its
// own body, so a binder inside the body that shares a name with a free
// variable of the µ-type must be renamed, or the unfolding captures it
// and α-equivalent types unfold to inequivalent ones.
func TestUnfoldCaptureAvoidance(t *testing.T) {
	a := Var{Name: "a"}
	for _, tc := range []struct{ rec, renamed Type }{
		{ // µt.o[a, a, Π() i[a, Π(a:a) t]]: the Π-binder a must not capture the free a.
			Rec{Var: "t", Body: Out{Ch: a, Payload: a, Cont: Thunk(In{Ch: a, Cont: Pi{Var: "a", Dom: a, Cod: RecVar{Name: "t"}}})}},
			Rec{Var: "t", Body: Out{Ch: a, Payload: a, Cont: Thunk(In{Ch: a, Cont: Pi{Var: "b", Dom: a, Cod: RecVar{Name: "t"}}})}},
		},
		{ // µt.(u ∨ o[a, a, Π() µu.(t ∨ u)]): the µ-binder u must not capture the free u.
			Rec{Var: "t", Body: Union{L: RecVar{Name: "u"}, R: Out{Ch: a, Payload: a, Cont: Thunk(Rec{Var: "u", Body: Union{L: RecVar{Name: "t"}, R: RecVar{Name: "u"}}})}}},
			Rec{Var: "t", Body: Union{L: RecVar{Name: "u"}, R: Out{Ch: a, Payload: a, Cont: Thunk(Rec{Var: "w", Body: Union{L: RecVar{Name: "t"}, R: RecVar{Name: "w"}}})}}},
		},
	} {
		if !Equal(tc.rec, tc.renamed) {
			t.Fatalf("%s and %s are not α-equivalent", tc.rec, tc.renamed)
		}
		if got, want := Unfold(tc.rec), Unfold(tc.renamed); !Equal(got, want) {
			t.Errorf("unfolding %s captured a variable: %s, want ≡ %s", tc.rec, got, want)
		}
	}
}

func TestApply(t *testing.T) {
	pi := Pi{Var: "c", Dom: ChanIO{Elem: Int{}},
		Cod: Out{Ch: Var{Name: "c"}, Payload: Int{}, Cont: Thunk(Nil{})}}
	got, ok := Apply(pi, Var{Name: "z"})
	if !ok {
		t.Fatal("Apply failed")
	}
	want := Out{Ch: Var{Name: "z"}, Payload: Int{}, Cont: Thunk(Nil{})}
	if !Equal(got, want) {
		t.Errorf("Apply = %s, want %s", got, want)
	}
	if _, ok := Apply(Bool{}, Int{}); ok {
		t.Error("Apply of non-function must fail")
	}
}

func TestFreshNameUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		n := FreshName("x")
		if seen[n] {
			t.Fatalf("FreshName repeated %q", n)
		}
		seen[n] = true
	}
}

// --- property-based tests (testing/quick over a structured generator) --------

// genClosedishType generates types whose free variables come from a small
// fixed pool.
func genClosedishType(r *rand.Rand, depth int) Type {
	pool := []string{"x", "y", "z"}
	if depth <= 0 {
		switch r.Intn(5) {
		case 0:
			return Bool{}
		case 1:
			return Int{}
		case 2:
			return Unit{}
		case 3:
			return Nil{}
		default:
			return Var{Name: pool[r.Intn(len(pool))]}
		}
	}
	switch r.Intn(7) {
	case 0:
		return Union{L: genClosedishType(r, depth-1), R: genClosedishType(r, depth-1)}
	case 1:
		return Pi{Var: pool[r.Intn(len(pool))], Dom: genClosedishType(r, depth-1), Cod: genClosedishType(r, depth-1)}
	case 2:
		return ChanIO{Elem: genClosedishType(r, depth-1)}
	case 3:
		return Out{Ch: genClosedishType(r, depth-1), Payload: genClosedishType(r, depth-1), Cont: Thunk(genClosedishType(r, depth-1))}
	case 4:
		return In{Ch: genClosedishType(r, depth-1), Cont: Pi{Var: "v", Dom: genClosedishType(r, depth-1), Cod: genClosedishType(r, depth-1)}}
	case 5:
		return Par{L: genClosedishType(r, depth-1), R: genClosedishType(r, depth-1)}
	default:
		return ChanO{Elem: genClosedishType(r, depth-1)}
	}
}

// TestPropSubstIdentity: T{x̱/x} = T.
func TestPropSubstIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		ty := genClosedishType(r, 4)
		got := Subst(ty, "x", Var{Name: "x"})
		if Canon(got) != Canon(ty) {
			t.Fatalf("T{x/x} ≠ T:\n  T    %s\n  got  %s", ty, got)
		}
	}
}

// TestPropSubstRemovesFreeVar: x ∉ fv(T{S/x}) when x ∉ fv(S).
func TestPropSubstRemovesFreeVar(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		ty := genClosedishType(r, 4)
		got := Subst(ty, "x", Int{})
		if FreeVars(got)["x"] {
			t.Fatalf("x survived substitution:\n  T   %s\n  got %s", ty, got)
		}
	}
}

// TestPropSubtypeReflexive: every generated type is a subtype of itself.
func TestPropSubtypeReflexive(t *testing.T) {
	e := env("x", ChanIO{Elem: Int{}}, "y", ChanIO{Elem: Int{}}, "z", ChanIO{Elem: Bool{}})
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		ty := genClosedishType(r, 4)
		if !Subtype(e, ty, ty) {
			t.Fatalf("reflexivity failed for %s", ty)
		}
	}
}

// TestPropSubtypeTopBottom: ⊥ ⩽ T ⩽ ⊤ for non-process types; π-types are
// below proc.
func TestPropSubtypeTopBottom(t *testing.T) {
	e := env("x", ChanIO{Elem: Int{}}, "y", ChanIO{Elem: Int{}}, "z", ChanIO{Elem: Bool{}})
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 300; i++ {
		ty := genClosedishType(r, 3)
		if !Subtype(e, Bottom{}, ty) {
			t.Fatalf("⊥ ⩽ %s failed", ty)
		}
	}
}

// TestPropUnionUpperBound: T ⩽ T∨U and U ⩽ T∨U.
func TestPropUnionUpperBound(t *testing.T) {
	e := env("x", ChanIO{Elem: Int{}}, "y", ChanIO{Elem: Int{}}, "z", ChanIO{Elem: Bool{}})
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		a := genClosedishType(r, 3)
		b := genClosedishType(r, 3)
		u := Union{L: a, R: b}
		if !Subtype(e, a, u) || !Subtype(e, b, u) {
			t.Fatalf("union upper bound failed for %s ∨ %s", a, b)
		}
	}
}

// TestPropCanonSound: Canon equality implies mutual subtyping.
func TestPropCanonSound(t *testing.T) {
	e := env("x", ChanIO{Elem: Int{}}, "y", ChanIO{Elem: Int{}}, "z", ChanIO{Elem: Bool{}})
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		a := genClosedishType(r, 3)
		// A shuffled parallel/union arrangement of a with itself.
		b := Par{L: Par{L: a, R: Nil{}}, R: Nil{}}
		if _, isProc := a.(Par); true {
			_ = isProc
		}
		if CheckProcType(e, a) == nil {
			if Canon(b) != Canon(Par{L: Nil{}, R: a}) {
				t.Fatalf("canon AC failure for %s", a)
			}
			if !Subtype(e, b, a) || !Subtype(e, a, b) {
				t.Fatalf("p[p[T,nil],nil] ≢ T for %s", a)
			}
		}
	}
}

// TestPropRingBufferFIFO uses quick.Check on the Env key determinism:
// permuted insertion orders give the same Key.
func TestPropEnvKeyOrderInsensitive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		names := []string{"a", "b", "c", "d"}
		perm := r.Perm(len(names))
		e1 := NewEnv()
		for _, n := range names {
			e1 = e1.MustExtend(n, Int{})
		}
		e2 := NewEnv()
		for _, i := range perm {
			e2 = e2.MustExtend(names[i], Int{})
		}
		return e1.Key() == e2.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
