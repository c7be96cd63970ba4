package verify

import (
	"testing"

	"effpi/internal/syntax"
	"effpi/internal/types"
)

// TestDuplicateUnionLeaves: T ∨ T is not T. Fig. 6's τ[∨] rule gives
// (nil ∨ nil) a τ step to nil, which nil itself does not have, so the
// interner (and Canon) may identify only AC variants of a union, never
// collapse its repeated leaves. When they did, a state reached through
// (nil ∨ nil) was served nil's empty step list or the other way round,
// and closed deadlock-freedom failed on all three systems below with a
// witness that looped on ⊠ in a state rendered nil.
func TestDuplicateUnionLeaves(t *testing.T) {
	if types.Canon(types.Union{L: types.Nil{}, R: types.Nil{}}) == types.Canon(types.Nil{}) {
		t.Fatal("Canon(nil ∨ nil) = Canon(nil): union leaves must not be deduplicated")
	}
	env := types.NewEnv().MustExtend("c", types.ChanIO{Elem: types.Int{}})
	for _, src := range []string{
		"(Nil | Nil)",
		"rec t. (Nil | Nil)",
		"Par[Out[c, Int, (() -> (Nil | Nil))], In[c, ((x: Int) -> Nil)]]",
		"Par[Out[c, Int, (() -> Nil)], In[c, ((x: Int) -> Nil)]]",
	} {
		ty, err := syntax.ParseType(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		out, err := Verify(Request{Env: env, Type: ty, Property: Property{Kind: DeadlockFree, Closed: true}})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !out.Holds {
			t.Errorf("%s: closed deadlock-free() fails:\n%s", src, out.Witness.Render(0))
		}
	}
}
