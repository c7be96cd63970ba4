// Command mcbench prints Fig. 9 of the paper: for each benchmark system
// it verifies the six behavioural properties and prints one row with the
// verdicts, the state count of the system's type LTS and the state count
// the paper reports. A verdict that differs from the paper's is marked
// [≠Fig.9], and every FAIL is replay-validated with effpi.Replay before
// it is reported; either failure makes the exit code 1. mcbench measures
// no time: perfbench is the benchmark.
//
// The harness drives the public effpi package — the same session API
// cmd/effpid serves over HTTP — so the verdicts it reports are the
// verdicts an API consumer gets.
//
// Usage:
//
//	mcbench [-suite fig9|all|large|payment|philos|pingpong|ring]
//	        [-props a,b] [-symmetry] [-por] [-json PATH]
//
// The default suite, fig9, is exactly effpi.Fig9Systems; large is
// effpi.LargeSystems, all is both, and the named families filter all.
// Each cell is one Session.Verify on a fresh workspace, so a reducer
// engages (or not) per property; under -symmetry or -por every cell also
// reports the states its exploration materialised.
//
// With -json PATH the table is also written as JSON: per row the system,
// its states and the paper's states; per cell the verdict, the paper's
// verdict and, for a FAIL with a witness, the witness length (stem +
// cycle) and the SHA-256 of its rendering (Witness.Render(0)). The
// committed BENCH_fig9.json is the reducers-off fig9 table,
//
//	go run ./cmd/mcbench -json BENCH_fig9.json
//
// and TestFig9Snapshot re-derives it byte for byte.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"effpi"
)

func main() {
	suite := flag.String("suite", "fig9", "fig9 | all | large | payment | philos | pingpong | ring")
	symmetry := flag.Bool("symmetry", false, "explore orbit representatives under each system's channel permutation group — interchangeable-bundle classes and ring rotations (verdicts unchanged; cells gain states_explored)")
	por := flag.Bool("por", false, "explore ample transition subsets per state (partial-order reduction; verdicts unchanged, eligible cells gain partial_order/states_explored)")
	propFilter := flag.String("props", "", "comma-separated property kinds to run (default: all six Fig. 9 columns)")
	jsonPath := flag.String("json", "", "write the table as JSON to PATH")
	flag.Parse()
	os.Exit(run(*suite, *symmetry, *por, *propFilter, *jsonPath))
}

// run executes the sweep and returns the process exit code.
func run(suite string, symmetry, por bool, propFilter, jsonPath string) int {
	rows := selectRows(suite)
	if len(rows) == 0 {
		fmt.Fprintf(os.Stderr, "mcbench: unknown suite %q\n", suite)
		return 2
	}
	kinds, err := parseKindFilter(propFilter)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcbench: %v\n", err)
		return 2
	}
	symMode := effpi.SymmetryOff
	if symmetry {
		symMode = effpi.SymmetryOn
	}
	porMode := effpi.PartialOrderOff
	if por {
		porMode = effpi.PartialOrderOn
	}
	t := sweep(rows, symMode, porMode, kinds, os.Stdout)
	if jsonPath != "" {
		buf, err := t.encode()
		if err == nil {
			err = os.WriteFile(jsonPath, buf, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcbench: %v\n", err)
			return 1
		}
	}
	if n := t.mismatches(); n > 0 {
		fmt.Fprintf(os.Stderr, "mcbench: %d verdicts differ from Fig. 9 or failed to replay\n", n)
		return 1
	}
	return 0
}

// parseKindFilter resolves the -props flag through the shared property
// parser: nil means "all kinds".
func parseKindFilter(spec string) (map[effpi.Kind]bool, error) {
	if spec == "" {
		return nil, nil
	}
	kinds := map[effpi.Kind]bool{}
	for _, name := range strings.Split(spec, ",") {
		k, err := effpi.ParseKind(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		kinds[k] = true
	}
	return kinds, nil
}

// familyPrefix maps each family suite to the lower-cased name prefix of
// its rows.
var familyPrefix = map[string]string{"payment": "pay", "philos": "dining", "pingpong": "ping", "ring": "ring"}

// selectRows resolves -suite; nil means the suite is unknown.
func selectRows(suite string) []*effpi.BenchSystem {
	all := append(effpi.Fig9Systems(), effpi.LargeSystems()...)
	switch suite {
	case "fig9":
		return effpi.Fig9Systems()
	case "large":
		return effpi.LargeSystems()
	case "all":
		return all
	}
	prefix, ok := familyPrefix[suite]
	if !ok {
		return nil
	}
	var out []*effpi.BenchSystem
	for _, s := range all {
		if strings.HasPrefix(strings.ToLower(s.Name), prefix) {
			out = append(out, s)
		}
	}
	return out
}

// table is the -json output and the content of BENCH_fig9.json.
type table struct {
	// Symmetry and PartialOrder are the reducer modes the table was
	// built with ("off" or "on").
	Symmetry     string     `json:"symmetry"`
	PartialOrder string     `json:"partial_order"`
	Rows         []tableRow `json:"rows"`
}

type tableRow struct {
	System string `json:"system"`
	// States is the row's full state count, taken from the cells that
	// explored every interleaving (under -por an ample-reduced cell
	// counts only its reduced space). PaperStates is the count Fig. 9
	// reports (0 where the paper gives none).
	States      int         `json:"states"`
	PaperStates int         `json:"paper_states"`
	Properties  []tableCell `json:"properties"`
}

type tableCell struct {
	Kind     string `json:"kind"`
	Holds    bool   `json:"holds"`
	Expected *bool  `json:"expected,omitempty"`
	// PartialOrder reports that the property was checked on an
	// ample-set reduced space. StatesExplored, set for every cell under a
	// reducer flag, is the state count the cell's exploration
	// materialised: orbit representatives when symmetry engaged, the
	// ample-reduced space when POR did, otherwise States.
	PartialOrder   bool `json:"partial_order,omitempty"`
	StatesExplored int  `json:"states_explored,omitempty"`
	// WitnessSteps (stem + cycle) and WitnessSHA256 (of
	// Witness.Render(0)) identify a FAIL's counterexample lasso; they
	// are written only after the witness replayed. ev-usage FAILs have
	// none: the schema is existential.
	WitnessSteps  int    `json:"witness_steps,omitempty"`
	WitnessSHA256 string `json:"witness_sha256,omitempty"`
	Error         string `json:"error,omitempty"`
}

// mismatch reports a cell that errored, whose witness did not replay,
// or whose verdict differs from Fig. 9.
func (c tableCell) mismatch() bool {
	return c.Error != "" || (c.Expected != nil && *c.Expected != c.Holds)
}

func (t *table) mismatches() int {
	n := 0
	for _, r := range t.Rows {
		for _, c := range r.Properties {
			if c.mismatch() {
				n++
			}
		}
	}
	return n
}

// encode renders the table as -json writes it.
func (t *table) encode() ([]byte, error) {
	buf, err := json.MarshalIndent(t, "", "  ")
	return append(buf, '\n'), err
}

// sweep verifies every row, printing each to out as it completes, and
// returns the table.
func sweep(rows []*effpi.BenchSystem, symmetry effpi.SymmetryMode, por effpi.PartialOrderMode, kinds map[effpi.Kind]bool, out io.Writer) *table {
	t := &table{Symmetry: symmetry.String(), PartialOrder: por.String()}
	var head strings.Builder
	fmt.Fprintf(&head, "%-34s %9s %9s", "system", "states", "paper")
	for _, k := range effpi.AllKinds() {
		if kinds == nil || kinds[k] {
			fmt.Fprintf(&head, "  %-14s", k)
		}
	}
	fmt.Fprintln(out, strings.TrimRight(head.String(), " "))
	for _, s := range rows {
		r := runRow(s, symmetry, por, kinds)
		t.Rows = append(t.Rows, r)
		printRow(out, r)
	}
	return t
}

// printRow writes one Fig. 9-style row: verdicts, with each cell's
// explored states when the table was built under a reducer flag.
func printRow(out io.Writer, r tableRow) {
	paper := "-"
	if r.PaperStates > 0 {
		paper = fmt.Sprint(r.PaperStates)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %9d %9s", r.System, r.States, paper)
	for _, c := range r.Properties {
		text := fmt.Sprint(c.Holds)
		if c.StatesExplored > 0 {
			text += fmt.Sprintf(" (%d)", c.StatesExplored)
		}
		switch {
		case c.Error != "":
			text = "error: " + c.Error
		case c.mismatch():
			text += " [≠Fig.9]"
		}
		fmt.Fprintf(&b, "  %-14s", text)
	}
	fmt.Fprintln(out, strings.TrimRight(b.String(), " "))
}

// runRow verifies the (filtered) properties of one system, each as one
// lone Session.Verify on a fresh workspace, so every cell gets the
// reducers its own property admits (a whole-row VerifyAll would pin the
// batch's channels together). Every FAIL with a witness is replayed
// before its hash is recorded; a replay failure is the cell's error.
func runRow(s *effpi.BenchSystem, symmetry effpi.SymmetryMode, por effpi.PartialOrderMode, kinds map[effpi.Kind]bool) tableRow {
	ctx := context.Background()
	reduced := symmetry != effpi.SymmetryOff || por != effpi.PartialOrderOff
	r := tableRow{System: s.Name, PaperStates: s.PaperStates}
	for _, prop := range s.Props {
		if kinds != nil && !kinds[prop.Kind] {
			continue
		}
		c := tableCell{Kind: prop.Kind.String()}
		if want, ok := s.Expected[prop.Kind]; ok {
			c.Expected = &want
		}
		sess, err := effpi.NewWorkspace().NewSessionFromType(s.Env, s.Type,
			effpi.WithSymmetry(symmetry), effpi.WithPartialOrder(por))
		var o *effpi.Outcome
		if err == nil {
			o, err = sess.Verify(ctx, prop)
		}
		if err != nil {
			c.Error = err.Error()
			r.Properties = append(r.Properties, c)
			continue
		}
		c.Holds = o.Holds
		c.PartialOrder = o.PartialOrder
		if !o.PartialOrder {
			r.States = o.States
		}
		if reduced {
			c.StatesExplored = o.StatesExplored
		}
		if !o.Holds && prop.Kind != effpi.EventualOutput {
			if err := effpi.Replay(o); err != nil {
				c.Error = err.Error()
			} else {
				sum := sha256.Sum256([]byte(o.Witness.Render(0)))
				c.WitnessSteps = len(o.Witness.Stem) + len(o.Witness.Cycle)
				c.WitnessSHA256 = hex.EncodeToString(sum[:])
			}
		}
		r.Properties = append(r.Properties, c)
	}
	return r
}
