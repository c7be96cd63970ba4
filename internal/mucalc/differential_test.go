package mucalc_test

import (
	"testing"

	"effpi/internal/mucalc"
	"effpi/internal/systems"
	"effpi/internal/verify"
)

// TestPatternsAgreeWithTableau: on the compiled formulas of the nineteen
// Fig. 9 rows and of the 200-seed random corpus, all five LTL schemas
// with reducers off, the clause checker and the tableau oracle reach the
// same verdict on every explored LTS.
func TestPatternsAgreeWithTableau(t *testing.T) {
	rows := systems.Fig9Systems()
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := range seeds {
		rows = append(rows, systems.RandomSystem(int64(seed)))
	}
	checked := 0
	for i, s := range rows {
		opts := verify.Options{Parallelism: 1}
		if i >= len(systems.Fig9Systems()) {
			opts.MaxStates = 1 << 14 // the corpus bound of internal/systems
		}
		outs, err := verify.VerifyAllWith(s.Env, s.Type, s.Props, opts)
		if err != nil {
			continue // the state bound: nothing was checked
		}
		for _, o := range outs {
			if o.Property.Kind == verify.EventualOutput {
				continue
			}
			checked++
			if want := mucalc.Oracle(o.LTS, o.Formula).Holds; o.Holds != want {
				t.Errorf("%s %s: clause checker says %v, tableau %v", s.Name, o.Property, o.Holds, want)
			}
		}
	}
	if checked < 5*len(systems.Fig9Systems()) {
		t.Fatalf("only %d verdicts compared", checked)
	}
	t.Logf("%d verdicts compared", checked)
}
