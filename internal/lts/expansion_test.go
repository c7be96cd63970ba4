package lts_test

import (
	"testing"

	"effpi/internal/lts"
	"effpi/internal/systems"
)

// TestRankTableExpansionMatchesReference checks rank-table expansion
// state by state against its reference (lts.CheckExpansions): the
// partner-rank sync sweep against a k(k−1) sweep over every ordered
// pair, and the edit probe of every proposal against building,
// rank-sorting and looking up its successor. The rows are the Fig. 9
// rows, Dining(7) and Ring(16,4), closed, explored with reducers off,
// under partial-order reduction, and through the on-demand engine.
func TestRankTableExpansionMatchesReference(t *testing.T) {
	rows := append(systems.Fig9Systems(), systems.DiningPhilosophers(7, true), systems.Ring(16, 4))
	modes := []struct {
		name        string
		opts        lts.Options
		incremental bool
	}{
		{"off", lts.Options{}, false},
		{"por", lts.Options{PartialOrder: &lts.POR{}}, false},
		{"incremental", lts.Options{}, true},
	}
	seen := 0
	for _, s := range rows {
		for _, m := range modes {
			n := lts.CheckExpansions(t, closedSem(s), s.Type, m.opts, m.incremental)
			if n.Proposals == 0 {
				t.Errorf("%s (%s): no proposal checked over %d states", s.Name, m.name, n.States)
			}
			seen += n.Seen
			t.Logf("%-32s %-11s %6d states %7d proposals %7d onto seen states", s.Name, m.name, n.States, n.Proposals, n.Seen)
		}
	}
	if seen == 0 {
		t.Error("no proposal led onto a seen state: the in-place compare was never checked")
	}
}
