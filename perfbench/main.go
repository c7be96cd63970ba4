// Command perfbench is the repository's benchmark: time to verdict on
// four workloads, measured end to end, with a separate traced run that
// times each layer from outside by wrapping the calls the benchmark
// makes into the layer's public entry points (the effpi façade, the
// effpi/internal/... packages, and the effpid wire).
//
// Run it from the repository root through the wrapper, which builds the
// benchmark and effpid from source first:
//
//	bash perfbench/run.sh --workload fig9-cold --seed 1 --seconds 15 --trace 0
//
// Every run does a fixed amount of work for a given --seconds (whole
// laps over each workload's inputs, or a fixed number of requests), so
// sample counts and the reported tail percentile are identical on any
// two commits. Verdicts are checked against their expected values and
// every FAIL witness is replayed; any mismatch is counted as a failed
// request and makes the run exit 1. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one run's settings.
type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	effpid    string // effpid binary (service-warm)
	outDir    string // spans and logs
	setupOnly bool   // set up, print "ready", exit (setup_s samples)
	fault     string // test hook: "panic" or "fail" after setup
}

// workload is one benchmark workload. setup makes the inputs from the
// seed and runs the untimed warm-up lap; run does the fixed measured
// work; layers is the traced run's decomposed pass.
type workload interface {
	setup(cfg *config) error
	run(cfg *config, tr *tracer) (*report, error)
	layers(cfg *config, tr *tracer, rep *report) (*layerReport, error)
	close()
}

// sample is one timed request.
type sample struct {
	class string // row, request kind or package: the unit of request_ms_geomean
	ms    float64
	light bool // part of light_ms_tail
	busy  bool // part of request_ms_p50/tail/geomean
}

// report is what a measured run produced.
type report struct {
	samples   []sample
	attempted int
	failed    int
	verdicts  int
	elapsed   time.Duration // measured wall time
	allocMB   float64       // allocated by the verifying process while measuring
	peakRSSMB float64       // VmHWM of the verifying process
	// lapRates and lapPeaksMB are per-lap verdict throughput and peak
	// RSS, where a run has laps; their medians are robust to a burst of
	// interference from outside the benchmark hitting one lap.
	lapRates   []float64
	lapPeaksMB []float64
	notes      []string // correctness findings, printed as comments
	tracer     *tracer  // the run's tracer (traced runs read its spans)
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"request_ms_p50", "ms"},
	{"request_ms_tail", "ms"},
	{"request_ms_geomean", "ms"},
	{"verdicts_per_s", "1/s"},
	{"light_ms_tail", "ms"},
	{"alloc_mb_per_verdict", "MB"},
	{"peak_rss_mb", "MB"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "fig9-cold":
		return newBatch(fig9Cold()), nil
	case "reduced-large":
		return newBatch(reducedLarge()), nil
	case "service-warm":
		return &service{}, nil
	case "go-source":
		return &goSource{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want fig9-cold, reduced-large, service-warm or go-source)", name)
}

func main() {
	start := time.Now()
	if ns, err := strconv.ParseInt(os.Getenv("PERFBENCH_EXEC_NS"), 10, 64); err == nil {
		start = time.Unix(0, ns) // set by run.sh just before exec
	}
	cfg := &config{}
	flag.StringVar(&cfg.workload, "workload", "", "fig9-cold, reduced-large, service-warm or go-source")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: row order and request arrivals")
	flag.IntVar(&cfg.seconds, "seconds", 15, "run length: sets the fixed work of the run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.effpid, "effpid", "", "effpid binary (service-warm)")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/perfbench", "directory for span files")
	flag.BoolVar(&cfg.setupOnly, "setup-only", false, "set up, report readiness and exit")
	flag.StringVar(&cfg.fault, "fault", "", "inject a fault after setup: panic or fail (tests)")
	deadline := flag.Duration("deadline", 175*time.Second, "hard limit on the whole run")
	flag.Parse()
	cfg.trace = *trace == 1
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		os.Exit(2)
	}
	guard(*deadline)
	exit(serveSpawns(func() int { return runSafely(cfg, start) }))
}

// runSafely turns a panic into exit code 2; exit then stops children.
func runSafely(cfg *config, start time.Time) (code int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "perfbench: panic: %v\n%s", r, debug.Stack())
			code = 2
		}
	}()
	if err := runBench(cfg, start); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		if err == errIncorrect {
			return 1
		}
		return 2
	}
	return 0
}

var errIncorrect = fmt.Errorf("verdict or witness check failed")

func runBench(cfg *config, start time.Time) error {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return err
	}
	defer w.close()
	if err := w.setup(cfg); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	setupSelf := time.Since(start).Seconds()
	if cfg.setupOnly {
		fmt.Printf("ready %.6f\n", setupSelf)
		return nil
	}
	switch cfg.fault {
	case "panic":
		panic("injected fault after setup")
	case "fail":
		return fmt.Errorf("injected fault after setup")
	}
	fmt.Printf("# perfbench %s seed=%d seconds=%d trace=%v nproc=%d GOMAXPROCS=%d %s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if cfg.trace {
		return runTraced(cfg, w)
	}
	// Two more setup samples, each a fresh process: setup_s is their
	// median with this process's own.
	setups := []float64{setupSelf}
	for i := 0; i < 2; i++ {
		s, err := setupChild(cfg)
		if err != nil {
			return err
		}
		setups = append(setups, s)
	}
	rep, err := w.run(cfg, newTracer(false))
	if err != nil {
		return err
	}
	res := endToEndResult(rep, setups)
	return emit(res, rep)
}

// setupChild runs a setup-only copy of the benchmark and returns the
// seconds from its start to its readiness report.
func setupChild(cfg *config) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.Itoa(cfg.seconds), "--effpid", cfg.effpid, "--out", cfg.outDir, "--setup-only")
	cmd.Env = append(os.Environ(), "PERFBENCH_EXEC_NS=") // the child times itself from exec
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	c, err := startChild("setup child", cmd)
	if err != nil {
		return 0, err
	}
	defer c.stop()
	line, err := bufio.NewReader(out).ReadString('\n')
	ready := time.Since(t0).Seconds()
	if err != nil || !strings.HasPrefix(line, "ready ") {
		return 0, fmt.Errorf("setup child did not report readiness (%q, %v)", line, err)
	}
	select {
	case <-c.done:
	case <-time.After(30 * time.Second):
		return 0, fmt.Errorf("setup child did not exit")
	}
	if cmd.ProcessState.ExitCode() != 0 {
		return 0, fmt.Errorf("setup child exited %d", cmd.ProcessState.ExitCode())
	}
	return ready, nil
}

func endToEndResult(rep *report, setups []float64) *result {
	var busy, light []float64
	byClass := map[string][]float64{}
	for _, s := range rep.samples {
		if s.busy {
			busy = append(busy, s.ms)
			byClass[s.class] = append(byClass[s.class], s.ms)
		}
		if s.light {
			light = append(light, s.ms)
		}
	}
	var classMedians []float64
	for _, xs := range byClass {
		classMedians = append(classMedians, hdQuantile(xs, 0.5))
	}
	throughput := float64(rep.verdicts) / rep.elapsed.Seconds()
	if len(rep.lapRates) > 0 {
		throughput = median(rep.lapRates)
	}
	peak := rep.peakRSSMB
	if len(rep.lapPeaksMB) > 0 {
		peak = median(rep.lapPeaksMB)
	}
	_, busyTail := tail(busy)
	_, lightTail := tail(light)
	verdicts := float64(max(rep.verdicts, 1))
	vals := map[string]float64{
		"setup_s":              median(setups),
		"request_ms_p50":       hdQuantile(busy, 0.5),
		"request_ms_tail":      busyTail,
		"request_ms_geomean":   geomean(classMedians),
		"verdicts_per_s":       throughput,
		"light_ms_tail":        lightTail,
		"alloc_mb_per_verdict": rep.allocMB / verdicts,
		"peak_rss_mb":          peak,
	}
	res := &result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	fmt.Printf("# %-22s %14s %-4s %s\n", "metric", "value", "unit", "samples")
	counts := map[string]string{
		"setup_s":              fmt.Sprintf("n=%d (median)", len(setups)),
		"request_ms_p50":       fmt.Sprintf("n=%d", len(busy)),
		"request_ms_tail":      fmt.Sprintf("n=%d p%d", len(busy), tailPercentile(len(busy))),
		"request_ms_geomean":   fmt.Sprintf("classes=%d", len(classMedians)),
		"verdicts_per_s":       fmt.Sprintf("verdicts=%d in %.3f s, median of %d laps", rep.verdicts, rep.elapsed.Seconds(), len(rep.lapRates)),
		"light_ms_tail":        fmt.Sprintf("n=%d p%d", len(light), tailPercentile(len(light))),
		"alloc_mb_per_verdict": fmt.Sprintf("verdicts=%d", rep.verdicts),
		"peak_rss_mb":          fmt.Sprintf("VmHWM, median of %d windows", max(len(rep.lapPeaksMB), 1)),
	}
	for _, m := range endToEnd {
		fmt.Printf("# %-22s %14.4f %-4s %s\n", m.name, vals[m.name], m.unit, counts[m.name])
	}
	fmt.Printf("# %-22s %14.4f %-4s failed=%d attempted=%d\n", "failed_share",
		float64(rep.failed)/float64(max(rep.attempted, 1)), "", rep.failed, rep.attempted)
	return res
}

// emit prints the findings and the result line, and turns a correctness
// failure into errIncorrect.
func emit(res *result, rep *report) error {
	for _, n := range rep.notes {
		fmt.Printf("# MISMATCH %s\n", n)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Correct = false
			fmt.Printf("# metric %s is not a number\n", name)
		}
	}
	if !res.Correct {
		res.Metrics = map[string]metric{} // no figures from an incorrect run
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// layerReport is the traced run's output: the per-layer metrics (the
// ones BENCHMARK.json names, reported for every workload) and the
// workload-specific layer figures printed alongside.
type layerReport struct {
	metrics    map[string]float64
	extra      []string // "name value unit  note" lines
	mismatches []string // decomposed-pass cross-check failures
}

var perLayer = []struct{ name, unit string }{
	{"lts.explore_ms", "ms"},
	{"lts.states", "count"},
	{"lts.edges", "count"},
	{"lts.states_per_s", "1/s"},
	{"lts.states_explored", "count"},
	{"lts.explored_ratio", "ratio"},
	{"typelts.memos_per_row", "count"},
	{"effpi.cache_memos", "count"},
	{"effpi.cache_evictions", "count"},
	{"verify.compile_ms", "ms"},
	{"mucalc.check_ms", "ms"},
	{"mucalc.product_states", "count"},
	{"mucalc.automaton_states", "count"},
	{"verify.explorations_per_row", "count"},
	{"verify.batch_remainder_ms", "ms"},
	{"verify.replay_ms", "ms"},
	{"verify.witness_steps", "count"},
	{"verify.fails", "count"},
	{"frontdoor.self_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// runTraced measures the workload's fixed work untraced and then traced
// (the difference of the two is the tracing overhead), runs the
// decomposed per-layer pass, and reports the per-layer metrics.
func runTraced(cfg *config, w workload) error {
	plain, err := w.run(cfg, newTracer(false))
	if err != nil {
		return err
	}
	tr := newTracer(true)
	traced, err := w.run(cfg, tr)
	if err != nil {
		return err
	}
	lr, err := w.layers(cfg, tr, traced)
	if err != nil {
		return err
	}
	busyMS := func(r *report) float64 {
		var xs []float64
		for _, s := range r.samples {
			xs = append(xs, s.ms)
		}
		return sum(xs)
	}
	lr.metrics["trace.overhead_ms"] = (busyMS(traced) - busyMS(plain)) / float64(max(len(traced.samples), 1))
	tr.printSelfTimes(os.Stdout)
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Printf("# spans: %d written to %s\n", len(tr.spans), path)
	fmt.Printf("# per-layer metrics\n")
	for _, m := range perLayer {
		fmt.Printf("#   %-28s %14.4f %s\n", m.name, lr.metrics[m.name], m.unit)
	}
	sort.Strings(lr.extra)
	fmt.Printf("# workload-specific layer figures\n")
	for _, e := range lr.extra {
		fmt.Printf("#   %s\n", e)
	}
	fmt.Printf("# trace.overhead_ms is per request: traced minus untraced latency, same fixed work\n")
	rep := &report{attempted: plain.attempted + traced.attempted,
		failed: plain.failed + traced.failed + len(lr.mismatches),
		notes:  append(append(plain.notes, traced.notes...), lr.mismatches...)}
	res := &result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: lr.metrics[m.name], Unit: m.unit}
	}
	return emit(res, rep)
}

// peakRSSMB reads VmHWM (kB) of a process from /proc.
func peakRSSMB(pid string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return math.NaN()
}

// resetPeakRSS restarts a process's VmHWM at its current RSS.
func resetPeakRSS(pid string) {
	_ = os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// lapsFor is the fixed lap count of a run: the run length divided by
// the lap time the workload had at the commit that defined the
// benchmark, so a run measures about --seconds there and the same work
// everywhere.
func lapsFor(seconds int, seedLapSeconds float64) int {
	return max(2, int(math.Round(float64(seconds)/seedLapSeconds)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
