package main

import (
	"encoding/json"
	"os"
	"testing"

	"effpi"
)

// TestRunRowAttachesReplayedWitnesses: every failing LTL property of a
// benchmark row comes out with a witness that was re-validated by
// replay, and none of the verdicts mismatch Fig. 9.
func TestRunRowAttachesReplayedWitnesses(t *testing.T) {
	s, ok := effpi.BenchSystemByName("Dining philos. (4, deadlock)")
	if !ok {
		t.Fatal("benchmark row not found")
	}
	row, mismatches := runRow(s, 1, 1<<18, true, 1, effpi.SymmetryOff, effpi.PartialOrderOff, nil)
	if mismatches != 0 {
		t.Fatalf("unexpected verdict mismatches: %d", mismatches)
	}
	sawWitness := false
	for _, p := range row.Properties {
		kind, err := effpi.ParseKind(p.Kind)
		if err != nil {
			t.Fatal(err)
		}
		want := s.Expected[kind]
		if p.Holds != want {
			t.Errorf("%s: verdict %v, Fig. 9 expects %v", p.Kind, p.Holds, want)
		}
		if p.Holds || kind == effpi.EventualOutput {
			if p.Witness != nil {
				t.Errorf("%s: unexpected witness", p.Kind)
			}
			continue
		}
		if p.Witness == nil {
			t.Fatalf("%s: FAIL without witness in the JSON row", p.Kind)
		}
		if !p.Witness.Replayed {
			t.Errorf("%s: witness not marked replayed", p.Kind)
		}
		if len(p.Witness.Cycle) == 0 {
			t.Errorf("%s: witness cycle is empty", p.Kind)
		}
		for _, st := range append(append([]effpi.WitnessStepJSON{}, p.Witness.Stem...), p.Witness.Cycle...) {
			if st.Label == "" {
				t.Errorf("%s: witness step without label", p.Kind)
			}
		}
		sawWitness = true
	}
	if !sawWitness {
		t.Fatal("row produced no witnesses")
	}
}

// TestRunRowSymmetry: under -symmetry a ping-pong row (interchangeable
// pairs) carries the states_explored / orbit_ratio pair with an actual
// collapse, verdicts still match Fig. 9, and failing properties still
// serialise replay-validated witnesses (now produced by the permutation
// lift).
func TestRunRowSymmetry(t *testing.T) {
	s, ok := effpi.BenchSystemByName("Ping-pong (6 pairs)")
	if !ok {
		t.Fatal("benchmark row not found")
	}
	row, mismatches := runRow(s, 1, 1<<20, true, 1, effpi.SymmetryOn, effpi.PartialOrderOff, nil)
	if mismatches != 0 {
		t.Fatalf("unexpected verdict mismatches under -symmetry: %d", mismatches)
	}
	if row.StatesExplored <= 0 || row.StatesExplored >= row.States {
		t.Fatalf("states_explored=%d, want a real collapse of the %d-state row", row.StatesExplored, row.States)
	}
	if want := float64(row.States) / float64(row.StatesExplored); row.OrbitRatio != want {
		t.Errorf("orbit_ratio=%v, want %v", row.OrbitRatio, want)
	}
	sawWitness := false
	for _, p := range row.Properties {
		kind, err := effpi.ParseKind(p.Kind)
		if err != nil {
			t.Fatal(err)
		}
		if p.Holds || kind == effpi.EventualOutput {
			continue
		}
		if p.Witness == nil || !p.Witness.Replayed {
			t.Fatalf("%s: symmetric FAIL without replay-validated witness", p.Kind)
		}
		sawWitness = true
	}
	if !sawWitness {
		t.Fatal("symmetric row produced no witnesses")
	}
}

// TestPropFilter: the -props flag runs through the façade's shared kind
// parser and filters the row's columns.
func TestPropFilter(t *testing.T) {
	kinds, err := parseKindFilter("deadlock-free, reactive")
	if err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 2 || !kinds[effpi.DeadlockFree] || !kinds[effpi.Reactive] {
		t.Errorf("bad filter: %v", kinds)
	}
	if _, err := parseKindFilter("deadlock-free,bogus"); err == nil {
		t.Error("unknown kind must fail")
	}
	all, err := parseKindFilter("")
	if err != nil || all != nil {
		t.Errorf("empty filter must mean all kinds: %v %v", all, err)
	}

	s, ok := effpi.BenchSystemByName("Dining philos. (4, deadlock)")
	if !ok {
		t.Fatal("benchmark row not found")
	}
	row, mismatches := runRow(s, 1, 1<<18, true, 1, effpi.SymmetryOff, effpi.PartialOrderOff, kinds)
	if mismatches != 0 {
		t.Fatalf("unexpected verdict mismatches: %d", mismatches)
	}
	if len(row.Properties) != 2 {
		t.Fatalf("filter kept %d properties, want 2", len(row.Properties))
	}
	for _, p := range row.Properties {
		k, err := effpi.ParseKind(p.Kind)
		if err != nil {
			t.Fatal(err)
		}
		if !kinds[k] {
			t.Errorf("property %s escaped the filter", p.Kind)
		}
	}
}

// TestSnapshotSchemaCompat: the committed BENCH_fig9.json parses under
// the current schema, keeps all 19 Fig. 9 rows (plus the LargeSystems
// sweep), agrees with the published verdicts, and every failing
// LTL-checked property carries a replay-validated witness — the snapshot
// is a set of checkable claims, not just numbers.
func TestSnapshotSchemaCompat(t *testing.T) {
	buf, err := os.ReadFile("../../BENCH_fig9.json")
	if err != nil {
		t.Skipf("snapshot not present: %v", err)
	}
	var report jsonReport
	if err := json.Unmarshal(buf, &report); err != nil {
		t.Fatalf("committed snapshot does not parse under the current schema: %v", err)
	}
	if len(report.Rows) < 19 {
		t.Fatalf("snapshot has %d rows, want the 19 Fig. 9 rows at least", len(report.Rows))
	}
	witnesses := 0
	for _, row := range report.Rows {
		if len(row.Properties) != 6 {
			t.Errorf("%s: %d properties, want 6", row.System, len(row.Properties))
		}
		for _, p := range row.Properties {
			if !p.Matches {
				t.Errorf("%s / %s: snapshot verdict does not match Fig. 9", row.System, p.Kind)
			}
			if p.Holds || p.Kind == effpi.EventualOutput.String() {
				continue
			}
			if p.Witness == nil {
				t.Errorf("%s / %s: failing property without witness in the snapshot", row.System, p.Kind)
				continue
			}
			if !p.Witness.Replayed || len(p.Witness.Cycle) == 0 {
				t.Errorf("%s / %s: snapshot witness not replay-validated or empty", row.System, p.Kind)
			}
			witnesses++
		}
	}
	if witnesses == 0 {
		t.Fatal("snapshot contains no witnesses")
	}
	// Round-trip: the schema serialises losslessly.
	out, err := json.Marshal(&report)
	if err != nil {
		t.Fatal(err)
	}
	var again jsonReport
	if err := json.Unmarshal(out, &again); err != nil {
		t.Fatal(err)
	}
	if len(again.Rows) != len(report.Rows) {
		t.Error("round-trip changed the row count")
	}
}

// TestRunRowPartialOrder: a -por row keeps every verdict, marks the
// eligible columns with partial_order plus their ample-set explored
// counts (strictly smaller than the full ping-pong space), keeps the
// full count from the ineligible columns, and still attaches
// replay-validated witnesses to FAILs.
func TestRunRowPartialOrder(t *testing.T) {
	s, ok := effpi.BenchSystemByName("Ping-pong (6 pairs)")
	if !ok {
		t.Fatal("benchmark row not found")
	}
	row, mismatches := runRow(s, 1, 1<<20, true, 1, effpi.SymmetryOff, effpi.PartialOrderOn, nil)
	if mismatches != 0 {
		t.Fatalf("unexpected verdict mismatches under -por: %d", mismatches)
	}
	if row.States <= 0 {
		t.Fatalf("row lost its full state count: %d", row.States)
	}
	if row.StatesAmple <= 0 || row.StatesAmple >= row.States {
		t.Fatalf("states_ample=%d, want a real reduction of the %d-state row", row.StatesAmple, row.States)
	}
	engaged := 0
	for _, p := range row.Properties {
		kind, err := effpi.ParseKind(p.Kind)
		if err != nil {
			t.Fatal(err)
		}
		if p.PartialOrder {
			engaged++
			if p.StatesExplored <= 0 || p.StatesExplored > row.StatesAmple {
				t.Errorf("%s: states_explored=%d out of range (row ample max %d)", p.Kind, p.StatesExplored, row.StatesAmple)
			}
		}
		if p.Holds || kind == effpi.EventualOutput {
			continue
		}
		if p.Witness == nil || !p.Witness.Replayed {
			t.Fatalf("%s: FAIL without replay-validated witness under -por", p.Kind)
		}
	}
	if engaged == 0 {
		t.Fatal("no column engaged partial-order reduction on the ping-pong row")
	}
}
