package systems

import (
	"testing"

	"effpi/internal/typelts"
	"effpi/internal/verify"
)

// TestEarlyExitTypeltsWork pins how much the on-the-fly engine explores
// and how much typelts work it does on Dining(6, deadlock), the row
// effpid serves with early_exit. Each property runs alone on a fresh
// cache; the pins are the states it discovered and expanded and the
// cache's memo count afterwards. Exploration fetches a component's
// typelts entry and its synchronisations only when a state holding it
// is expanded, so the components of states that are only discovered
// cost nothing; fetching them eagerly would raise the memo counts of
// the early-exit properties. The properties the planner keeps on the
// full pipeline pin the same counts for a whole exploration.
func TestEarlyExitTypeltsWork(t *testing.T) {
	want := map[string]struct {
		early                   bool
		states, expanded, memos int
	}{
		"deadlock-free()":   {true, 27, 7, 422},
		"ev-usage(f0)":      {false, 728, 0, 465},
		"forwarding(f0→f1)": {false, 728, 0, 471},
		"non-usage(f0)":     {true, 180, 43, 506},
		"reactive(f0)":      {true, 27, 7, 422},
		"responsive(f0)":    {false, 728, 0, 471},
	}
	s := DiningPhilosophers(6, true)
	for _, p := range s.Props {
		cache := typelts.NewCache(s.Env, true)
		outs, err := verify.VerifyAllWith(s.Env, s.Type, []verify.Property{p}, verify.Options{EarlyExit: true, Cache: cache, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		o := outs[0]
		w, ok := want[o.Property.String()]
		if !ok {
			t.Errorf("%s: no pinned counts", o.Property)
			continue
		}
		if o.EarlyExit != w.early || o.StatesExplored != w.states || o.Expanded != w.expanded || cache.Memos() != w.memos {
			t.Errorf("%s: early exit %v, %d states, %d expanded, %d memos; want %v, %d, %d, %d",
				o.Property, o.EarlyExit, o.StatesExplored, o.Expanded, cache.Memos(), w.early, w.states, w.expanded, w.memos)
		}
	}
}
