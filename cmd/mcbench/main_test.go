package main

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"effpi"
)

var sha256Hex = regexp.MustCompile(`^[0-9a-f]{64}$`)

// checkWitnesses asserts that a row matches Fig. 9 and that exactly its
// LTL-checked FAILs carry a (replayed) witness length and hash.
func checkWitnesses(t *testing.T, r tableRow) {
	t.Helper()
	sawWitness := false
	for _, c := range r.Properties {
		if c.mismatch() {
			t.Errorf("%s / %s: holds %v (error %q) differs from Fig. 9", r.System, c.Kind, c.Holds, c.Error)
		}
		if c.Holds || c.Kind == effpi.EventualOutput.String() {
			if c.WitnessSteps != 0 || c.WitnessSHA256 != "" {
				t.Errorf("%s / %s: unexpected witness", r.System, c.Kind)
			}
			continue
		}
		if c.WitnessSteps <= 0 || !sha256Hex.MatchString(c.WitnessSHA256) {
			t.Errorf("%s / %s: FAIL without witness length and hash: %d %q", r.System, c.Kind, c.WitnessSteps, c.WitnessSHA256)
		}
		sawWitness = true
	}
	if !sawWitness {
		t.Errorf("%s: row produced no witnesses", r.System)
	}
}

// TestRunRowAttachesReplayedWitnesses: every failing LTL property of a
// benchmark row comes out with its witness length and hash (written
// only after the witness replayed), none of the verdicts mismatch
// Fig. 9, and without a reducer flag no cell reports explored states.
func TestRunRowAttachesReplayedWitnesses(t *testing.T) {
	s, ok := effpi.BenchSystemByName("Dining philos. (4, deadlock)")
	if !ok {
		t.Fatal("benchmark row not found")
	}
	r := runRow(s, effpi.SymmetryOff, effpi.PartialOrderOff, nil)
	if len(r.Properties) != 6 {
		t.Fatalf("%d properties, want 6", len(r.Properties))
	}
	if r.States <= 0 || r.PaperStates != s.PaperStates {
		t.Errorf("states %d, paper_states %d (want %d)", r.States, r.PaperStates, s.PaperStates)
	}
	checkWitnesses(t, r)
	for _, c := range r.Properties {
		if c.StatesExplored != 0 || c.PartialOrder {
			t.Errorf("%s: reducer columns without a reducer flag", c.Kind)
		}
	}
}

// TestRunRowSymmetry: under -symmetry a ping-pong row (interchangeable
// pairs) reports every cell's explored states, at least one with an
// actual orbit collapse; verdicts still match Fig. 9 and FAILs still
// carry witnesses (now produced by the permutation lift).
func TestRunRowSymmetry(t *testing.T) {
	s, ok := effpi.BenchSystemByName("Ping-pong (6 pairs)")
	if !ok {
		t.Fatal("benchmark row not found")
	}
	r := runRow(s, effpi.SymmetryOn, effpi.PartialOrderOff, nil)
	checkWitnesses(t, r)
	collapsed := 0
	for _, c := range r.Properties {
		if c.StatesExplored <= 0 || c.StatesExplored > r.States {
			t.Errorf("%s: states_explored=%d out of range (row %d)", c.Kind, c.StatesExplored, r.States)
		}
		if c.StatesExplored < r.States {
			collapsed++
		}
	}
	if collapsed == 0 {
		t.Fatalf("no cell collapsed the %d-state row", r.States)
	}
}

// TestRunRowPartialOrder: a -por row keeps every verdict, marks the
// eligible cells with partial_order plus their ample-set explored
// counts (strictly smaller than the full ping-pong space), keeps the
// full count from the ineligible cells, and still attaches witnesses to
// FAILs.
func TestRunRowPartialOrder(t *testing.T) {
	s, ok := effpi.BenchSystemByName("Ping-pong (6 pairs)")
	if !ok {
		t.Fatal("benchmark row not found")
	}
	r := runRow(s, effpi.SymmetryOff, effpi.PartialOrderOn, nil)
	checkWitnesses(t, r)
	if r.States <= 0 {
		t.Fatalf("row lost its full state count: %d", r.States)
	}
	engaged := 0
	for _, c := range r.Properties {
		if c.PartialOrder {
			engaged++
			if c.StatesExplored <= 0 || c.StatesExplored >= r.States {
				t.Errorf("%s: states_explored=%d, want a real reduction of the %d-state row", c.Kind, c.StatesExplored, r.States)
			}
		}
	}
	if engaged == 0 {
		t.Fatal("no cell engaged partial-order reduction on the ping-pong row")
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
	r := runRow(s, effpi.SymmetryOff, effpi.PartialOrderOff, kinds)
	if len(r.Properties) != 2 {
		t.Fatalf("filter kept %d properties, want 2", len(r.Properties))
	}
	for _, c := range r.Properties {
		if c.mismatch() {
			t.Errorf("%s: verdict mismatch", c.Kind)
		}
		k, err := effpi.ParseKind(c.Kind)
		if err != nil {
			t.Fatal(err)
		}
		if !kinds[k] {
			t.Errorf("property %s escaped the filter", c.Kind)
		}
	}
}

// TestSelectRows: the default suite is exactly Fig. 9, the families
// filter Fig. 9 plus the large rows, and an unknown suite selects
// nothing (exit code 2).
func TestSelectRows(t *testing.T) {
	names := func(rows []*effpi.BenchSystem) string {
		var out []string
		for _, s := range rows {
			out = append(out, s.Name)
		}
		return strings.Join(out, "|")
	}
	if got, want := names(selectRows("fig9")), names(effpi.Fig9Systems()); got != want {
		t.Errorf("fig9 suite:\n%s\nwant\n%s", got, want)
	}
	if got, want := len(selectRows("all")), len(effpi.Fig9Systems())+len(effpi.LargeSystems()); got != want {
		t.Errorf("all suite has %d rows, want %d", got, want)
	}
	for _, family := range []string{"payment", "philos", "pingpong", "ring"} {
		if len(selectRows(family)) == 0 {
			t.Errorf("%s suite is empty", family)
		}
	}
	if rows := selectRows("nope"); rows != nil {
		t.Errorf("unknown suite selected %d rows", len(rows))
	}
}

// TestFig9Snapshot: the committed BENCH_fig9.json is exactly the table
// `mcbench -json` builds for the default suite with reducers off —
// every verdict, state count, witness length and rendered-witness hash —
// and that table agrees with Fig. 9. The file is never skipped: a
// missing or stale snapshot fails with the command that regenerates it.
func TestFig9Snapshot(t *testing.T) {
	const path = "../../BENCH_fig9.json"
	const regen = "go run ./cmd/mcbench -json BENCH_fig9.json"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading the snapshot: %v; regenerate it with `%s`", err, regen)
	}
	tab := sweep(selectRows("fig9"), effpi.SymmetryOff, effpi.PartialOrderOff, nil, io.Discard)
	if n := tab.mismatches(); n != 0 {
		t.Errorf("%d cells differ from Fig. 9 or failed to replay", n)
	}
	got, err := tab.encode()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("BENCH_fig9.json is stale from line %d:\n  committed: %s\n  derived:   %s\nregenerate it with `%s`", i+1, w, g, regen)
		}
	}
}
