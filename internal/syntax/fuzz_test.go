package syntax

// Fuzz targets for the two parsers. Each checks that whatever parses
// survives a print → parse round trip and prints stably, so the printer
// never emits text the lexer or parser rejects. Run one with
//
//	go test -run '^$' -fuzz '^FuzzParseTerm$' -fuzztime 20s ./internal/syntax/
//
// Inputs that once failed live under testdata/fuzz and run with the
// plain test suite.

import (
	"math/rand"
	"slices"
	"testing"

	"effpi/internal/systems"
	"effpi/internal/types"
)

func FuzzParseTerm(f *testing.F) {
	for _, src := range representativeTerms {
		f.Add(src)
	}
	for _, c := range termSpotChecks {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tm, err := ParseTerm(src)
		if err != nil {
			return
		}
		printed := PrintTerm(tm)
		back, err := ParseTerm(printed)
		if err != nil {
			t.Fatalf("PrintTerm output %q of %q does not re-parse: %v", printed, src, err)
		}
		if again := PrintTerm(back); again != printed {
			t.Fatalf("print not stable: %q vs %q", printed, again)
		}
	})
}

func FuzzParseType(f *testing.F) {
	for _, c := range typeSpotChecks {
		f.Add(c.src)
	}
	for _, sys := range systems.Fig9Systems()[:4] {
		f.Add(PrintType(sys.Type))
	}
	f.Fuzz(func(t *testing.T, src string) {
		ty, err := ParseType(src)
		if err != nil {
			return
		}
		printed := PrintType(ty)
		back, err := ParseType(printed)
		if err != nil {
			t.Fatalf("PrintType output %q of %q does not re-parse: %v", printed, src, err)
		}
		if !types.Equal(back, ty) {
			t.Fatalf("round trip of %q changed the type: %s vs %s", src, printed, PrintType(back))
		}
		if again := PrintType(back); again != printed {
			t.Fatalf("print not stable: %q vs %q", printed, again)
		}
	})
}

// FuzzTypeTraversal checks the one traversal of the type syntax
// (types.EachChild / MapChildren) on parsed types: mapping with the
// identity rebuilds an equal type, MapChildren visits what EachChild
// visits, the ordered free-variable walk and OccursFree agree with
// FreeVars, substituting a variable for itself and replacing variables along an
// empty map change nothing.
func FuzzTypeTraversal(f *testing.F) {
	for _, c := range typeSpotChecks {
		f.Add(c.src)
	}
	for _, sys := range systems.Fig9Systems()[:4] {
		f.Add(PrintType(sys.Type))
	}
	var identity func(types.Type) types.Type
	identity = func(t types.Type) types.Type { return types.MapChildren(t, identity) }
	f.Fuzz(func(t *testing.T, src string) {
		ty, err := ParseType(src)
		if err != nil {
			return
		}
		if got := identity(ty); got != ty || !types.Equal(got, ty) {
			t.Fatalf("identity map changed %s into %s", ty, got)
		}
		var each, mapped []types.Type
		types.EachChild(ty, func(c types.Type) bool { each = append(each, c); return true })
		types.MapChildren(ty, func(c types.Type) types.Type { mapped = append(mapped, c); return c })
		if !slices.Equal(each, mapped) {
			t.Fatalf("EachChild visits %v, MapChildren %v", each, mapped)
		}
		ordered, fv := types.FreeVarsInOrder(ty), types.FreeVars(ty)
		if len(ordered) != len(fv) {
			t.Fatalf("FreeVarsInOrder = %v, FreeVars = %v", ordered, fv)
		}
		for _, x := range ordered {
			if !fv[x] || !types.OccursFree(ty, x) {
				t.Fatalf("FreeVarsInOrder = %v, FreeVars = %v, OccursFree(%s) = %v", ordered, fv, x, types.OccursFree(ty, x))
			}
			if got := types.Subst(ty, x, types.Var{Name: x}); !types.Equal(got, ty) {
				t.Fatalf("Subst(%s, %s, %s) = %s", ty, x, x, got)
			}
		}
		if got := types.ReplaceVars(ty, nil); got != ty {
			t.Fatalf("ReplaceVars with an empty map changed %s into %s", ty, got)
		}
	})
}

// FuzzCanonSteps checks on parsed types what TestCanonEqualSameSteps
// checks on the benchmark types: subterms that Canon renders alike, and
// AC variants of them, have the same transitions. Every free variable is
// bound to Chan[Int]; a type that is not guarded (Lemma 4.7) is skipped,
// since unguarded recursion may unfold exponentially before the
// semantics' depth guard stops it.
func FuzzCanonSteps(f *testing.F) {
	for _, c := range typeSpotChecks {
		f.Add(c.src, int64(0))
	}
	for _, sys := range systems.Fig9Systems()[:4] {
		f.Add(PrintType(sys.Type), int64(1))
	}
	f.Add("Par[Out[c, Int, (() -> (Nil | Nil))], In[c, ((x: Int) -> Nil)]]", int64(2))
	f.Add("rec t. (Nil | (Nil | Nil))", int64(3))
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		ty, err := ParseType(src)
		if err != nil || types.CheckGuarded(ty) != nil {
			return
		}
		env := types.NewEnv()
		for _, x := range types.FreeVarsInOrder(ty) {
			env = env.MustExtend(x, types.ChanIO{Elem: types.Int{}})
		}
		checkCanonSteps(t, env, ty, rand.New(rand.NewSource(seed)), 2)
	})
}
