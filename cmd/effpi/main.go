// Command effpi is the CLI front end of the effpi-go reproduction: it
// parses .epi programs, type-checks them against the λπ⩽ type system,
// verifies temporal properties by type-level model checking, explores
// type state spaces, and runs programs under the operational semantics.
//
// It is built entirely on the public effpi package — the same
// session-oriented API that cmd/effpid serves over HTTP — so every
// capability here is available to library consumers too.
//
// Usage:
//
//	effpi check  [-bind x=TYPE]... FILE
//	effpi run    [-steps N] FILE
//	effpi verify [-bind x=TYPE]... -prop KIND [-channels a,b] [-from x] [-to y] [-open] FILE
//	effpi verify [-prop KIND] [flags] ./PKG/...   (static extraction from Go source)
//	effpi lint   [./PKG/...]
//	effpi lts    [-bind x=TYPE]... [-dot] [-max N] FILE
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"effpi"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "check":
		err = cmdCheck(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "lint":
		err = cmdLint(os.Args[2:])
	case "lts":
		err = cmdLTS(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "bisim":
		err = cmdBisim(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "effpi: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "effpi: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `effpi — dependent behavioural types for message-passing programs

commands:
  check   parse a .epi program and infer its λπ⩽ type
  run     execute a program under the operational semantics
  trace   print the program's reduction sequence step by step
  bisim   decide strong bisimilarity of two programs' types
  verify  model-check a Fig. 7 property of the program's type; given a
          Go package directory (or ./... pattern) instead of a .epi
          file, statically extract the protocol from the Go source
          first — FAIL witnesses then carry file:line positions
  lint    run the Go-source extractor for diagnostics only (exit 1 on
          any finding); also available standalone as cmd/effpilint
  lts     explore and print the type-level transition system

common flags:
  -bind x=TYPE   add x:TYPE to the typing environment (repeatable)

verify flags:
  -prop KIND     deadlock-free | ev-usage | forwarding | non-usage |
                 reactive | responsive
  -channels a,b  probe channels (deadlock-free, ev-usage, non-usage)
  -from x -to y  forwarding source/target; reactive/responsive use -from
  -open          treat the program as open (environment may interact on
                 the probe channels); default is closed-composition mode
  -early         stop exploring as soon as a violation is found
  -symmetry MODE off | on — explore orbit representatives under the
                 system's channel permutation group: classes of
                 interchangeable channel bundles and rotations of
                 ring-shaped bundles (verdicts unchanged,
                 counterexamples permutation-lifted to concrete runs
                 and replay-validated)
  -por MODE      off | on — partial-order reduction: explore only an
                 ample subset of each state's transitions (verdicts
                 unchanged, counterexamples are concrete runs of the
                 reduced space, replay-validated)
                 where -early, -symmetry and -por engage: DESIGN.md §batch
  -width N       truncate printed witness states to N runes (default
                 100, 0 = full)

a failing property exits with status 1 and prints the counterexample: a
lasso-shaped run (stem, then a cycle repeating forever) with the parallel
component multiset at every visited state, re-validated by replaying it
against the transition system and the property automaton.

the long-lived service flavour of this tool is cmd/effpid: the same
verification pipeline behind an HTTP JSON API with shared caches.
`)
}

// bindFlags collects repeated -bind x=TYPE flags, validating each one
// eagerly (parse errors and duplicates fail at flag-parse time).
type bindFlags struct{ binds []effpi.Binding }

func (b *bindFlags) String() string { return "" }

func (b *bindFlags) Set(s string) error {
	name, tsrc, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("-bind wants x=TYPE, got %q", s)
	}
	b.binds = append(b.binds, effpi.Binding{Name: strings.TrimSpace(name), Type: strings.TrimSpace(tsrc)})
	// Validate the whole set eagerly so the failing flag is reported,
	// not the later session construction.
	if _, err := effpi.BuildEnv(b.binds); err != nil {
		b.binds = b.binds[:len(b.binds)-1]
		return err
	}
	return nil
}

// options converts the collected binds into session options.
func (b *bindFlags) options() []effpi.Option {
	opts := make([]effpi.Option, 0, len(b.binds))
	for _, bind := range b.binds {
		opts = append(opts, effpi.WithBind(bind.Name, bind.Type))
	}
	return opts
}

// loadSource parses the flag set and reads the single input file. The
// caller must only read its flag values after this returns.
func loadSource(fs *flag.FlagSet, args []string) (string, error) {
	if err := fs.Parse(args); err != nil {
		return "", err
	}
	if fs.NArg() != 1 {
		return "", fmt.Errorf("expected exactly one input file")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return "", err
	}
	return string(src), nil
}

// loadSession is loadSource plus a session in a fresh workspace. extra
// options are appended after the binds; pass flag-dependent options only
// via a command that read them after loadSource instead.
func loadSession(fs *flag.FlagSet, binds *bindFlags, args []string, extra ...effpi.Option) (*effpi.Session, error) {
	src, err := loadSource(fs, args)
	if err != nil {
		return nil, err
	}
	ws := effpi.NewWorkspace()
	return ws.NewSession(src, append(binds.options(), extra...)...)
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	binds := &bindFlags{}
	fs.Var(binds, "bind", "x=TYPE environment binding")
	s, err := loadSession(fs, binds, args)
	if err != nil {
		return err
	}
	t, err := s.Check(context.Background())
	if err != nil {
		return err
	}
	fmt.Println(effpi.FormatType(t))
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	binds := &bindFlags{}
	fs.Var(binds, "bind", "x=TYPE environment binding")
	steps := fs.Int("steps", 1_000_000, "maximum reduction steps")
	s, err := loadSession(fs, binds, args)
	if err != nil {
		return err
	}
	final, err := s.Run(context.Background(), *steps)
	if err != nil {
		return err
	}
	fmt.Println(final)
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	binds := &bindFlags{}
	fs.Var(binds, "bind", "x=TYPE environment binding")
	propName := fs.String("prop", "", "property kind")
	channels := fs.String("channels", "", "comma-separated probe channels")
	from := fs.String("from", "", "source channel")
	to := fs.String("to", "", "target channel")
	open := fs.Bool("open", false, "open-process mode (default: closed composition)")
	maxStates := fs.Int("max", 0, "state bound (0 = default)")
	early := fs.Bool("early", false, "early-exit mode: stop exploring as soon as a violation is found (on-the-fly checking; non-usage, deadlock-free and reactive)")
	symmetry := fs.String("symmetry", "off", "exploration-time symmetry reduction: off | on (orbit representatives under interchangeable-bundle and ring-rotation groups; verdicts unchanged, witnesses permutation-lifted and replay-validated; where it engages: DESIGN.md §batch)")
	por := fs.String("por", "off", "exploration-time partial-order reduction: off | on (ample transition subsets; verdicts unchanged, witnesses replay-validated; where it engages: DESIGN.md §batch)")
	width := fs.Int("width", 100, "truncate printed witness states to this width (0 = full)")
	pkgMode := fs.Bool("pkg", false, "treat arguments as Go package directories and statically extract the protocol (implied by a directory or ./... argument)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	symMode, err := effpi.ParseSymmetry(*symmetry)
	if err != nil {
		return err
	}
	porMode, err := effpi.ParsePartialOrder(*por)
	if err != nil {
		return err
	}
	opts := []effpi.Option{
		effpi.WithMaxStates(*maxStates), effpi.WithEarlyExit(*early),
		effpi.WithSymmetry(symMode), effpi.WithPartialOrder(porMode),
	}
	if *pkgMode || argsArePackages(fs.Args()) {
		return verifyPackages(fs.Args(), *propName, *channels, *from, *to, *open, *width, opts)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one input file")
	}
	srcBytes, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	src := string(srcBytes)
	prop, err := effpi.PropertyFromFlags(*propName, *channels, *from, *to, !*open)
	if err != nil {
		return err
	}
	ws := effpi.NewWorkspace()
	s, err := ws.NewSession(src, append(binds.options(), opts...)...)
	if err != nil {
		return err
	}
	outcome, err := s.Verify(context.Background(), prop)
	if err != nil {
		return err
	}
	printOutcome(outcome, *width)
	if !outcome.Holds {
		// A FAIL exits non-zero (via main's error path) so scripts and CI
		// can gate on the verdict; the witness above is the evidence.
		return fmt.Errorf("property %s does not hold (counterexample above)", outcome.Property)
	}
	return nil
}

// argsArePackages reports whether the positional arguments name Go
// package directories (a `...` pattern or an existing directory) rather
// than a .epi source file.
func argsArePackages(args []string) bool {
	if len(args) == 0 {
		return false
	}
	for _, a := range args {
		if strings.Contains(a, "...") {
			return true
		}
		if st, err := os.Stat(a); err == nil && st.IsDir() {
			return true
		}
	}
	return false
}

// verifyPackages is the package mode of `effpi verify`: statically
// extract every protocol entry under the argument patterns, then
// model-check each one. Without -prop, deadlock-freedom of the closed
// composition is checked. FAIL witnesses are annotated with the source
// positions of the extracted actions; any FAIL, refused entry, or lint
// finding exits non-zero.
func verifyPackages(patterns []string, propName, channels, from, to string, open bool, width int, opts []effpi.Option) error {
	if propName == "" {
		propName = "deadlock-free"
	}
	prop, err := effpi.PropertyFromFlags(propName, channels, from, to, !open)
	if err != nil {
		return err
	}
	res, err := effpi.FromPackages(".", patterns...)
	if err != nil {
		return err
	}
	for _, d := range res.Diagnostics {
		fmt.Fprintf(os.Stderr, "%s\n", d)
	}
	if len(res.Systems) == 0 {
		return fmt.Errorf("no protocol entries extracted (want func Name() runtime.Proc)")
	}
	ws := effpi.NewWorkspace()
	failed := res.HasFatal()
	for _, sys := range res.Systems {
		fmt.Printf("== %s (%s)\n", sys.Name, sys.Pos)
		s, err := ws.NewSessionFromGo(sys, opts...)
		if err != nil {
			return err
		}
		outcome, err := s.Verify(context.Background(), prop)
		if err != nil {
			return fmt.Errorf("%s: %w", sys.Name, err)
		}
		printMappedOutcome(outcome, sys.Map, width)
		if !outcome.Holds {
			failed = true
		}
	}
	if failed {
		return fmt.Errorf("verification failed (counterexamples or refused entries above)")
	}
	return nil
}

// cmdLint runs the extractor for its diagnostics only: `effpi lint` is
// the in-CLI flavour of cmd/effpilint. Exit status 1 on any finding.
func cmdLint(args []string) error {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	patterns := fs.Args()
	res, err := effpi.FromPackages(".", patterns...)
	if err != nil {
		return err
	}
	for _, d := range res.Diagnostics {
		fmt.Println(d)
	}
	if len(res.Diagnostics) > 0 {
		return fmt.Errorf("%d extraction finding(s)", len(res.Diagnostics))
	}
	fmt.Printf("%d protocol entries extracted cleanly\n", len(res.Systems))
	return nil
}

// printMappedOutcome is printOutcome with source-annotated witnesses.
func printMappedOutcome(o *effpi.Outcome, sm *effpi.SourceMap, width int) {
	printOutcomeHeader(o)
	if o.Witness != nil {
		replayed := "replay-validated"
		if err := effpi.Replay(o); err != nil {
			replayed = fmt.Sprintf("REPLAY FAILED: %v", err)
		}
		fmt.Printf("violating run (lasso, %s):\n%s", replayed, effpi.RenderWitnessWithSource(o, sm, width))
	} else if !o.Holds && o.Property.Kind == effpi.EventualOutput {
		fmt.Printf("no single-run witness: ev-usage is existential (no run reaches the output)\n")
	}
}

func printOutcome(o *effpi.Outcome, width int) {
	printOutcomeHeader(o)
	if o.Witness != nil {
		replayed := "replay-validated"
		if err := effpi.Replay(o); err != nil {
			replayed = fmt.Sprintf("REPLAY FAILED: %v", err)
		}
		fmt.Printf("violating run (lasso, %s):\n%s", replayed, o.Witness.Render(width))
	} else if o.Counterexample != nil {
		fmt.Printf("violating run (lasso):\n  prefix: %v\n  cycle:  %v\n",
			o.Counterexample.Prefix, o.Counterexample.Cycle)
	} else if !o.Holds && o.Property.Kind == effpi.EventualOutput {
		fmt.Printf("no single-run witness: ev-usage is existential (no run reaches the output)\n")
	}
}

func printOutcomeHeader(o *effpi.Outcome) {
	fmt.Printf("property:  %s\n", o.Property)
	fmt.Printf("verdict:   %v\n", o.Holds)
	if o.StatesExplored > 0 && o.StatesExplored < o.States {
		fmt.Printf("symmetry:  %d orbit representatives cover %d states (%.1f×)\n",
			o.StatesExplored, o.States, float64(o.States)/float64(o.StatesExplored))
	}
	if o.PartialOrder {
		fmt.Printf("por:       ample-set reduction engaged (state counts are of the reduced space)\n")
	}
	if o.EarlyExit {
		fmt.Printf("states:    %d discovered, %d expanded (early exit; product %d, automaton %d)\n",
			o.States, o.Expanded, o.ProductStates, o.AutomatonStates)
	} else {
		fmt.Printf("states:    %d (product %d, automaton %d)\n", o.States, o.ProductStates, o.AutomatonStates)
	}
	fmt.Printf("time:      %s\n", o.Duration)
	if o.Formula != nil {
		fmt.Printf("formula:   %s\n", o.Formula)
	}
}

func cmdLTS(args []string) error {
	fs := flag.NewFlagSet("lts", flag.ContinueOnError)
	binds := &bindFlags{}
	fs.Var(binds, "bind", "x=TYPE environment binding")
	dot := fs.Bool("dot", false, "emit Graphviz DOT")
	maxStates := fs.Int("max", 0, "state bound (0 = default)")
	observe := fs.String("observe", "", "comma-separated observable channels (default: all closed)")
	src, err := loadSource(fs, args)
	if err != nil {
		return err
	}
	ws := effpi.NewWorkspace()
	s, err := ws.NewSession(src, append(binds.options(), effpi.WithMaxStates(*maxStates))...)
	if err != nil {
		return err
	}
	var obs []string
	if *observe != "" {
		obs = strings.Split(*observe, ",")
	}
	m, err := s.Explore(context.Background(), obs...)
	if err != nil {
		return err
	}
	if *dot {
		fmt.Print(m.DOT())
		return nil
	}
	fmt.Printf("states:      %d\n", m.Len())
	fmt.Printf("transitions: %d\n", m.NumEdges())
	fmt.Printf("alphabet:    %d labels\n", len(m.Alphabet()))
	fmt.Printf("deadlocked:  %v\n", m.Deadlocked())
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	binds := &bindFlags{}
	fs.Var(binds, "bind", "x=TYPE environment binding")
	steps := fs.Int("steps", 200, "maximum steps to trace")
	width := fs.Int("width", 100, "truncate printed terms to this width")
	s, err := loadSession(fs, binds, args)
	if err != nil {
		return err
	}
	tr, err := s.Trace(context.Background(), *steps)
	if tr != nil {
		fmt.Printf("%4d  %s\n", 0, effpi.ClipRunes(tr.Initial, *width))
		for i, st := range tr.Steps {
			fmt.Printf("%4d  —[%s]→  %s\n", i+1, st.Rule, effpi.ClipRunes(st.Term, *width))
		}
	}
	if err != nil {
		return err
	}
	if tr.Done {
		fmt.Printf("      (no further reductions)\n")
	} else {
		fmt.Printf("      (trace truncated at %d steps)\n", *steps)
	}
	return nil
}

// cmdBisim decides whether two programs have strongly bisimilar types:
// an executable notion of behavioural equivalence, useful to check that
// a protocol refactoring preserves behaviour.
func cmdBisim(args []string) error {
	fs := flag.NewFlagSet("bisim", flag.ContinueOnError)
	binds := &bindFlags{}
	fs.Var(binds, "bind", "x=TYPE environment binding")
	maxStates := fs.Int("max", 0, "state bound (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("bisim expects two input files")
	}
	// One workspace for both sessions: bisimilarity requires the two
	// programs in the same (canonical) typing environment.
	ws := effpi.NewWorkspace()
	load := func(path string) (*effpi.Session, error) {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		opts := append(binds.options(), effpi.WithMaxStates(*maxStates))
		s, err := ws.NewSession(string(src), opts...)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return s, nil
	}
	s1, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	s2, err := load(fs.Arg(1))
	if err != nil {
		return err
	}
	ok, err := s1.Bisimilar(context.Background(), s2)
	if err != nil {
		return err
	}
	fmt.Printf("bisimilar: %v\n", ok)
	if !ok {
		os.Exit(1)
	}
	return nil
}
