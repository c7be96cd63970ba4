// Command mcbench regenerates Fig. 9 of the paper: for each benchmark
// system it verifies the six behavioural properties, reporting the
// verdict, the explored state count, and the mean verification time with
// standard deviation — the same row format as the paper's table. Beyond
// the paper's rows it also sweeps the larger instances the parallel
// engine unlocks (effpi.LargeSystems).
//
// The harness drives the public effpi package — the same session API
// cmd/effpid serves over HTTP — so the numbers it reports are the
// numbers an API consumer gets.
//
// Usage:
//
//	mcbench [-suite all|payment|philos|pingpong|ring|large] [-reps N]
//	        [-max N] [-skip-slow] [-shared] [-par N] [-props a,b] [-json PATH]
//	        [-symmetry] [-por] [-cpuprofile PATH] [-memprofile PATH]
//
// With -json PATH the results are also written as machine-readable JSON
// (one object per row with per-property verdicts and timing stats), the
// format of the committed BENCH_fig9.json perf-trajectory snapshot. Every
// failing property additionally carries its counterexample witness — the
// lasso-shaped violating run, replay-validated with effpi.Replay before
// it is written — so a FAIL in the snapshot is a checkable artifact, not
// just a bit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"effpi"
)

func main() {
	suite := flag.String("suite", "all", "payment | philos | pingpong | ring | large | all")
	reps := flag.Int("reps", 3, "repetitions per property")
	maxStates := flag.Int("max", 1<<22, "state bound for exploration")
	skipSlow := flag.Bool("skip-slow", false, "skip the largest (slowest) rows")
	shared := flag.Bool("shared", false, "share one workspace cache across a row's properties (the VerifyAll production path) instead of timing each property cold")
	par := flag.Int("par", 0, "batch executor width passed to WithParallelism (0 = GOMAXPROCS); rows verify one property per batch and every exploration is serial, so timings do not depend on it")
	symmetry := flag.Bool("symmetry", false, "explore orbit representatives under each system's channel permutation group — interchangeable-bundle classes and ring rotations (verdicts unchanged; rows gain states_explored/orbit_ratio columns)")
	por := flag.Bool("por", false, "explore ample transition subsets per state (partial-order reduction; verdicts unchanged, eligible properties gain partial_order/states_explored columns)")
	propFilter := flag.String("props", "", "comma-separated property kinds to run (default: all six Fig. 9 columns)")
	jsonPath := flag.String("json", "", "write machine-readable results to PATH")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole sweep to PATH")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the sweep) to PATH")
	flag.Parse()

	// Profile teardown must run on every exit path, and main exits via
	// os.Exit (which skips defers) — so the sweep lives in run() and the
	// teardown happens here, between run returning and the process dying.
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcbench: %v\n", err)
		os.Exit(2)
	}
	code := run(*suite, *reps, *maxStates, *skipSlow, *shared, *par, *symmetry, *por, *propFilter, *jsonPath)
	stopProfiles()
	os.Exit(code)
}

// startProfiles begins CPU profiling and/or arranges a heap profile,
// returning the teardown to run after the sweep. A nil-safe no-op
// teardown comes back when neither path is set.
func startProfiles(cpuPath, memPath string) (func(), error) {
	var stopCPU func()
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	return func() {
		if stopCPU != nil {
			stopCPU()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mcbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "mcbench: writing heap profile: %v\n", err)
			}
		}
	}, nil
}

// run executes the sweep and returns the process exit code.
func run(suite string, reps, maxStates int, skipSlow, shared bool, par int, symmetry, por bool, propFilter, jsonPath string) int {
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
	report := &jsonReport{
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Parallelism:  par,
		Reps:         reps,
		SharedCache:  shared,
		Symmetry:     symMode.String(),
		PartialOrder: porMode.String(),
	}

	statesHeader := "states"
	switch {
	case symmetry:
		statesHeader = "states full→explored"
	case por:
		statesHeader = "states full→ample"
	}
	fmt.Printf("%-34s %19s  %s\n", "system", statesHeader, strings.Join(propHeaders(kinds), "  "))
	mismatches := 0
	for _, s := range rows {
		if skipSlow && isSlow(s.Name) {
			continue
		}
		row, bad := runRow(s, reps, maxStates, shared, par, symMode, porMode, kinds)
		report.Rows = append(report.Rows, row)
		mismatches += bad
	}

	if jsonPath != "" {
		if err := writeJSON(jsonPath, report); err != nil {
			fmt.Fprintf(os.Stderr, "mcbench: %v\n", err)
			return 1
		}
	}
	if mismatches > 0 {
		fmt.Fprintf(os.Stderr, "mcbench: %d verdicts differ from Fig. 9\n", mismatches)
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

// keepProp applies the -props filter.
func keepProp(kinds map[effpi.Kind]bool, p effpi.Property) bool {
	return kinds == nil || kinds[p.Kind]
}

func selectRows(suite string) []*effpi.BenchSystem {
	all := append(effpi.Fig9Systems(), effpi.LargeSystems()...)
	if suite == "all" {
		return all
	}
	if suite == "large" {
		return effpi.LargeSystems()
	}
	var out []*effpi.BenchSystem
	for _, s := range all {
		name := strings.ToLower(s.Name)
		switch suite {
		case "payment":
			if strings.HasPrefix(name, "pay") {
				out = append(out, s)
			}
		case "philos":
			if strings.HasPrefix(name, "dining") {
				out = append(out, s)
			}
		case "pingpong":
			if strings.HasPrefix(name, "ping") {
				out = append(out, s)
			}
		case "ring":
			if strings.HasPrefix(name, "ring") {
				out = append(out, s)
			}
		}
	}
	return out
}

// isSlow marks the rows whose full sweep takes seconds rather than
// milliseconds: the paper's 10-pair ping-pong rows and the beyond-Fig. 9
// instances of effpi.LargeSystems. -skip-slow keeps a default run
// fast; the full sweep is one flag away.
func isSlow(name string) bool {
	for _, marker := range []string{
		"10 pairs",    // Fig. 9 rows 14-15
		"12 pairs",    // LargeSystems: the 531k-state ping-pong sweep
		"philos. (7",  // LargeSystems: 7 philosophers
		"philos. (8",  // LargeSystems: 8 philosophers
		"philos. (9",  // LargeSystems: 9 philosophers
		"philos. (10", // LargeSystems: 10 philosophers (59k-state rings)
		"Ring (16",    // LargeSystems: 16-member rings
	} {
		if strings.Contains(name, marker) {
			return true
		}
	}
	return false
}

func propHeaders(kinds map[effpi.Kind]bool) []string {
	var out []string
	for _, k := range effpi.AllKinds() {
		if kinds != nil && !kinds[k] {
			continue
		}
		out = append(out, fmt.Sprintf("%-24s", k))
	}
	return out
}

// jsonReport is the -json output: enough context to compare runs across
// machines and parallelism settings, plus one entry per row.
type jsonReport struct {
	GOMAXPROCS  int  `json:"gomaxprocs"`
	Parallelism int  `json:"parallelism"`
	Reps        int  `json:"reps"`
	SharedCache bool `json:"shared_cache"`
	// Symmetry is the exploration-time symmetry mode the run used ("off"
	// or "on"); with "on" every row carries states_explored and
	// orbit_ratio.
	Symmetry string `json:"symmetry"`
	// PartialOrder is the exploration-time partial-order mode the run
	// used ("off" or "on"); with "on" every eligible property carries
	// partial_order and its ample-set states_explored count.
	PartialOrder string    `json:"partial_order,omitempty"`
	Rows         []jsonRow `json:"rows"`
}

type jsonRow struct {
	System string `json:"system"`
	States int    `json:"states"`
	// StatesExplored is the smallest orbit-representative count any of
	// the row's properties visited under -symmetry (equal to States when
	// the row has no non-trivial symmetry group; properties whose pinned
	// channels freeze the whole group — e.g. every fork-observing column
	// of a Dining row, since a rotation moves every fork — stay concrete
	// and carry their own per-property states_explored). OrbitRatio is
	// States / StatesExplored — the row's best exploration collapse
	// factor.
	StatesExplored int     `json:"states_explored,omitempty"`
	OrbitRatio     float64 `json:"orbit_ratio,omitempty"`
	// StatesAmple is the largest ample-set reduced state space any of the
	// row's eligible properties explored under -por (each property prunes
	// against its own visible-label set, so reduced sizes differ per
	// column; the full interleaving count is never computed for them —
	// States holds it only when an ineligible property ran full).
	StatesAmple int        `json:"states_ample,omitempty"`
	Properties  []jsonProp `json:"properties"`
}

type jsonProp struct {
	Kind  string `json:"kind"`
	Holds bool   `json:"holds"`
	// PartialOrder reports that this property was checked on an ample-set
	// reduced space under -por; StatesExplored is that reduced state
	// count (the full interleaving count is never computed under POR).
	// Under -symmetry it is instead this property's orbit-representative
	// count — per-property because pinned channels can freeze the group
	// for some columns but not others (a Dining row rotates only for
	// deadlock-freedom).
	PartialOrder   bool    `json:"partial_order,omitempty"`
	StatesExplored int     `json:"states_explored,omitempty"`
	Expected       *bool   `json:"expected,omitempty"`
	Matches        bool    `json:"matches_expected"`
	MeanSeconds    float64 `json:"mean_seconds"`
	StddevSeconds  float64 `json:"stddev_seconds"`
	Error          string  `json:"error,omitempty"`
	// Witness is the counterexample lasso of a failing property,
	// replay-validated (effpi.Replay) before it is written. ev-usage
	// failures have none: the schema is existential.
	Witness *effpi.WitnessJSON `json:"witness,omitempty"`
}

// runRow verifies the (filtered) properties of one system, reps times
// each, and prints one Fig. 9-style row. It returns the row's JSON
// record and the number of verdicts that deviate from the expectations.
// With shared, one workspace serves the whole row, so later properties
// reuse earlier per-component work through its cache; without it every
// repetition runs in a fresh workspace (timed cold).
func runRow(s *effpi.BenchSystem, reps, maxStates int, shared bool, par int, symmetry effpi.SymmetryMode, por effpi.PartialOrderMode, kinds map[effpi.Kind]bool) (jsonRow, int) {
	ctx := context.Background()
	row := jsonRow{System: s.Name}
	cells := make([]string, 0, len(s.Props))
	mismatches := 0
	var rowWS *effpi.Workspace
	if shared {
		rowWS = effpi.NewWorkspace()
	}
	newSession := func() (*effpi.Session, error) {
		ws := rowWS
		if ws == nil {
			ws = effpi.NewWorkspace()
		}
		return ws.NewSessionFromType(s.Env, s.Type,
			effpi.WithMaxStates(maxStates), effpi.WithParallelism(par),
			effpi.WithSymmetry(symmetry), effpi.WithPartialOrder(por))
	}
	for _, prop := range s.Props {
		if !keepProp(kinds, prop) {
			continue
		}
		jp := jsonProp{Kind: prop.Kind.String(), Matches: true}
		var times []float64
		var last *effpi.Outcome
		failed := false
		for r := 0; r < reps; r++ {
			sess, err := newSession()
			if err == nil {
				last, err = sess.Verify(ctx, prop)
			}
			if err != nil {
				cells = append(cells, fmt.Sprintf("error: %v", err))
				jp.Error = err.Error()
				jp.Matches = false
				failed = true
				break
			}
			jp.Holds = last.Holds
			if last.PartialOrder {
				// Under POR, States and StatesExplored both count the
				// reduced space — keep the row's full count from the
				// ineligible properties (which still explore everything).
				jp.PartialOrder = true
				jp.StatesExplored = last.StatesExplored
				if last.StatesExplored > row.StatesAmple {
					row.StatesAmple = last.StatesExplored
				}
			} else {
				row.States = last.States
			}
			if symmetry != effpi.SymmetryOff {
				jp.StatesExplored = last.StatesExplored
				if row.StatesExplored == 0 || last.StatesExplored < row.StatesExplored {
					row.StatesExplored = last.StatesExplored
				}
			}
			times = append(times, last.Duration.Seconds())
		}
		if failed {
			mismatches++
			row.Properties = append(row.Properties, jp)
			continue
		}
		if last != nil && !last.Holds && prop.Kind != effpi.EventualOutput {
			w, err := effpi.WitnessToJSON(last)
			if err != nil {
				// A FAIL whose witness does not replay is as bad as a wrong
				// verdict: count it against the row.
				jp.Error = err.Error()
				jp.Matches = false
				mismatches++
			}
			jp.Witness = w
		}
		jp.MeanSeconds, jp.StddevSeconds = meanStddev(times)
		mark := ""
		if want, ok := s.Expected[prop.Kind]; ok {
			w := want
			jp.Expected = &w
			if want != jp.Holds {
				jp.Matches = false
				mark = " [≠Fig.9]"
				mismatches++
			}
		}
		cells = append(cells, fmt.Sprintf("%-5v (%6.2f±%5.1f%%)%s", jp.Holds, jp.MeanSeconds, relDev(jp.MeanSeconds, jp.StddevSeconds), mark))
		row.Properties = append(row.Properties, jp)
	}
	statesCell := fmt.Sprintf("%19d", row.States)
	if symmetry != effpi.SymmetryOff && row.StatesExplored > 0 {
		row.OrbitRatio = float64(row.States) / float64(row.StatesExplored)
	}
	if row.OrbitRatio > 0 {
		statesCell = fmt.Sprintf("%10d\u2192%-8d", row.States, row.StatesExplored)
	} else if por != effpi.PartialOrderOff && row.StatesAmple > 0 {
		statesCell = fmt.Sprintf("%10d\u2192%-8d", row.States, row.StatesAmple)
	}
	fmt.Printf("%-34s %s  %s\n", s.Name, statesCell, strings.Join(cells, "  "))
	return row, mismatches
}

func writeJSON(path string, report *jsonReport) error {
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func meanStddev(xs []float64) (mean, dev float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		dev += (x - mean) * (x - mean)
	}
	dev = math.Sqrt(dev / float64(len(xs)))
	return mean, dev
}

func relDev(mean, dev float64) float64 {
	if mean == 0 {
		return 0
	}
	return 100 * dev / mean
}
