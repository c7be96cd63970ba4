package lts

// Cancellation coverage for both exploration engines. Promptness
// is asserted structurally (bounded discovered-state counts), not with
// wall-clock sleeps: the engines poll the context at deterministic
// points, so a context cancelled after N states can never discover the
// whole space.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"effpi/internal/typelts"
	"effpi/internal/types"
)

// unboundedCounter builds an infinite-state system (a µ-free output
// chain would be finite; instead each step spawns a fresh parallel
// sender), so only the bound or the context can stop exploration.
func unboundedCounter() (*typelts.Semantics, types.Type) {
	env := types.EnvOf("c", types.ChanIO{Elem: types.Int{}})
	// µt. c!Int . (t ‖ c!Int.nil): every unfolding adds one more pending
	// sender component — states grow without bound.
	leaf := types.Out{Ch: types.Var{Name: "c"}, Payload: types.Int{}, Cont: types.Thunk(types.Nil{})}
	rec := types.Rec{Var: "t", Body: types.Out{Ch: types.Var{Name: "c"}, Payload: types.Int{},
		Cont: types.Thunk(types.Par{L: types.RecVar{Name: "t"}, R: leaf})}}
	return &typelts.Semantics{Env: env}, rec
}

// flipCtx is a context whose Err flips to Canceled after a fixed number
// of polls: deterministic mid-exploration cancellation with no timing
// dependence and no goroutines. Done stays nil (like Background), which
// also covers the engines' nil-Done path.
type flipCtx struct {
	context.Context
	polls, after int
}

func (c *flipCtx) Err() error {
	c.polls++
	if c.polls > c.after {
		return context.Canceled
	}
	return nil
}

func TestExploreContextCancelledSerial(t *testing.T) {
	sem, init := unboundedCounter()
	ctx := &flipCtx{Context: context.Background(), after: 3}
	m, err := ExploreContext(ctx, sem, init, Options{MaxStates: 1 << 19})
	if err == nil {
		t.Fatal("cancelled exploration must fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got: %v", err)
	}
	// Prompt: the flip happens within the first few cancel strides, far
	// from the state bound.
	if m.Len() > 16*cancelStride {
		t.Errorf("exploration ran on after cancellation: %d states", m.Len())
	}
}

func TestIncrementalContextCancelled(t *testing.T) {
	sem, init := unboundedCounter()
	ctx, cancel := context.WithCancel(context.Background())
	inc := NewIncrementalContext(ctx, sem, init, Options{MaxStates: 1 << 19})
	// Expand a few states, then cancel: the next expansion must fail and
	// the error must be sticky.
	if _, err := inc.Succ(0); err != nil {
		t.Fatal(err)
	}
	cancel()
	s := inc.Len() - 1
	if _, err := inc.Succ(s); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got: %v", err)
	}
	if inc.Err() == nil || !errors.Is(inc.Err(), context.Canceled) {
		t.Errorf("cancellation must stick: %v", inc.Err())
	}
	// Already-expanded states keep serving their cached edges.
	if _, err := inc.Succ(0); err != nil {
		t.Errorf("expanded state must stay readable after cancellation: %v", err)
	}
}

// TestExploreCancelledSharedCacheReusable: a cancelled exploration must
// leave a shared cache fully usable — re-running the identical
// exploration to completion produces an LTS byte-identical to one built
// on a virgin cache.
func TestExploreCancelledSharedCacheReusable(t *testing.T) {
	base, init := pingPong()
	// Cache compatibility is by *Env pointer identity: derive every
	// semantics from one base so they can share caches.
	mkSem := func(c *typelts.Cache) *typelts.Semantics {
		clone := *base
		clone.Cache = c
		return &clone
	}

	shared := typelts.NewCache(base.Env, base.WitnessOnly)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExploreContext(ctx, mkSem(shared), init, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got: %v", err)
	}

	warm, err := Explore(mkSem(shared), init, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Explore(mkSem(typelts.NewCache(base.Env, base.WitnessOnly)), init, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(warm) != fingerprint(cold) {
		t.Error("exploration on a cancellation-survivor cache differs from a virgin cache")
	}
}

// fingerprint renders the full LTS structure for byte comparison.
func fingerprint(m *LTS) string {
	s := fmt.Sprintf("init=%d;", m.Initial)
	for i, lab := range m.Labels {
		s += fmt.Sprintf("L%d=%s;", i, lab.Key())
	}
	for st := range m.Len() {
		s += fmt.Sprintf("s%d:", st)
		for _, e := range m.Out(st) {
			s += fmt.Sprintf("(%d→%d)", e.Label, e.Dst)
		}
		s += ";"
	}
	return s
}
