package systems

import (
	"testing"

	"effpi/internal/verify"
)

// FuzzReducerAgreement crosses the reducers: for the generated system of
// any seed, VerifyAllWith gives the reducers-off verdicts under symmetry,
// partial-order reduction, early exit, early exit with symmetry and
// early exit with POR, and every FAIL of an LTL schema replays. A
// reduced run explores no more than the full one, so it may exceed the
// state bound only where the full run did; such seeds are skipped.
func FuzzReducerAgreement(f *testing.F) {
	for seed := range int64(8) {
		f.Add(seed)
	}
	settings := []struct {
		name string
		opts verify.Options
	}{
		{"symmetry", verify.Options{Symmetry: verify.SymmetryOn}},
		{"por", verify.Options{PartialOrder: verify.PartialOrderOn}},
		{"early", verify.Options{EarlyExit: true}},
		{"early+symmetry", verify.Options{EarlyExit: true, Symmetry: verify.SymmetryOn}},
		{"early+por", verify.Options{EarlyExit: true, PartialOrder: verify.PartialOrderOn}},
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		s := RandomSystem(seed)
		off, err := verify.VerifyAllWith(s.Env, s.Type, s.Props, verify.Options{MaxStates: genMaxStates, Parallelism: 1})
		if err != nil {
			t.Skipf("seed %d: %v", seed, err)
		}
		for _, c := range settings {
			opts := c.opts
			opts.MaxStates, opts.Parallelism = genMaxStates, 1
			outs, err := verify.VerifyAllWith(s.Env, s.Type, s.Props, opts)
			if err != nil {
				t.Fatalf("seed %d %s: %v, where reducers off succeeded", seed, c.name, err)
			}
			for i, o := range outs {
				if o.Holds != off[i].Holds {
					t.Errorf("seed %d %s %s: verdict %v, reducers off %v", seed, c.name, o.Property, o.Holds, off[i].Holds)
				}
				if !o.Holds && o.Property.Kind != verify.EventualOutput {
					if err := verify.Replay(o); err != nil {
						t.Errorf("seed %d %s %s: %v", seed, c.name, o.Property, err)
					}
				}
			}
		}
	})
}
