package lts_test

import (
	"testing"

	"effpi/internal/lts"
	"effpi/internal/systems"
)

// TestDetectSymmetryRing: the benchmark's ring-shaped rows detect no
// group even with nothing pinned. Neighbouring philosophers share a
// fork and neighbouring ring members a channel, so each row fuses into
// one bundle with nothing to swap it with, and a closed query on it
// explores the concrete state space.
func TestDetectSymmetryRing(t *testing.T) {
	for _, s := range []*systems.System{
		systems.DiningPhilosophers(8, true),
		systems.DiningPhilosophers(8, false),
		systems.Ring(10, 3),
	} {
		if lts.DetectSymmetry(closedSem(s).Cache, s.Type, nil) != nil {
			t.Errorf("%s: ring detected a symmetry group", s.Name)
		}
	}
}
