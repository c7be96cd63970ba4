package main

// go-source: the in-process equivalent of `effpi verify
// ./examples/<pkg>` — static extraction from Go source, then
// deadlock-freedom of every extracted entry, with the witness rendered
// against the source on FAIL. Two closed-loop callers (nproc) share a
// fixed, seeded request list.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"effpi"
	"effpi/internal/systems"
	"effpi/internal/typelts"
	"effpi/internal/verify"
)

var goPackages = []string{"mobilecode", "payment", "philosophers", "quickstart"}

// goExpected is the hand-written verdict table for deadlock-freedom of
// the examples' entries. Where a hand-written model of the same
// protocol exists (the Fig. 9 philosophers rows, and the payment model
// the frontend's differential test uses), its expected verdict must
// agree — checked before any run.
var goExpected = map[string]struct {
	holds bool
	model *systems.System
}{
	"MobileServer":         {false, nil},
	"Payment":              {true, systems.PaymentAudit(3)},
	"PhilosophersDeadlock": {false, systems.DiningPhilosophers(4, true)},
	"Philosophers":         {true, systems.DiningPhilosophers(4, false)},
	"PingPong":             {true, nil},
}

const goCallers = 2

type goSource struct {
	rng   *rand.Rand
	light map[string]bool
	// last: each entry's latest outcome; systems: the latest extraction
	// per package (for the decomposed pass).
	mu      sync.Mutex
	last    map[string]*effpi.Outcome
	systems map[string][]*effpi.GoSystem
	memos   map[string]int // workspace memos after each package's request
	evicted uint64
}

func (g *goSource) close() {}

func (g *goSource) setup(cfg *config) error {
	for entry, e := range goExpected {
		if e.model != nil && e.model.Expected[verify.DeadlockFree] != e.holds {
			return fmt.Errorf("verdict table: %s = %v disagrees with its model %q", entry, e.holds, e.model.Name)
		}
	}
	g.rng = rand.New(rand.NewSource(cfg.seed))
	g.last = map[string]*effpi.Outcome{}
	g.systems = map[string][]*effpi.GoSystem{}
	g.memos = map[string]int{}
	rep := &report{}
	for _, pkg := range goPackages {
		g.request(newTracer(false), rep, "warmup/"+pkg, pkg)
	}
	if rep.failed > 0 {
		return fmt.Errorf("warm-up lap: %s", strings.Join(rep.notes, "; "))
	}
	states := map[string]int{}
	for _, pkg := range goPackages {
		for _, sys := range g.systems[pkg] {
			states[pkg] += g.last[sys.Name].States
		}
	}
	pkgs := append([]string(nil), goPackages...)
	sort.SliceStable(pkgs, func(i, j int) bool { return states[pkgs[i]] < states[pkgs[j]] })
	g.light = map[string]bool{}
	for _, p := range pkgs[:len(pkgs)/2] {
		g.light[p] = true
	}
	return nil
}

// seedLapGo is the wall time of one lap (every package once, two
// callers) at the commit that defined the benchmark.
const seedLapGo = 2.0

func (g *goSource) run(cfg *config, tr *tracer) (*report, error) {
	laps := lapsFor(cfg.seconds, seedLapGo)
	var reqs []string
	for i := 0; i < laps; i++ {
		for _, j := range g.rng.Perm(len(goPackages)) {
			reqs = append(reqs, goPackages[j])
		}
	}
	rep := &report{tracer: tr}
	queue := make(chan int)
	var wg sync.WaitGroup
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resetPeakRSS("self")
	start := time.Now()
	for c := 0; c < goCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				g.request(tr, rep, fmt.Sprintf("req%d/%s", i, reqs[i]), reqs[i])
			}
		}()
	}
	for i := range reqs {
		queue <- i
	}
	close(queue)
	wg.Wait()
	rep.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	rep.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	return rep, nil
}

// request extracts one package and verifies each entry, then gates the
// verdicts (outside the timed span).
func (g *goSource) request(tr *tracer, rep *report, req, pkg string) {
	ctx := context.Background()
	type result struct {
		sys     *effpi.GoSystem
		out     *effpi.Outcome
		err     error
		witness string
	}
	var results []result
	var ext *effpi.GoExtraction
	var extErr error
	var ws *effpi.Workspace
	d := tr.do("request", req, 0, func(id int) {
		tr.do("frontend.extract", req, id, func(int) {
			ext, extErr = effpi.FromPackages(".", "./examples/"+pkg)
		})
		if extErr != nil {
			return
		}
		ws = effpi.NewWorkspace()
		for _, sys := range ext.Systems {
			r := result{sys: sys}
			var sess *effpi.Session
			tr.do("effpi.new_session", req, id, func(int) { sess, r.err = ws.NewSessionFromGo(sys) })
			if r.err == nil {
				tr.do("effpi.verify", req, id, func(int) {
					r.out, r.err = sess.Verify(ctx, effpi.Property{Kind: effpi.DeadlockFree, Closed: true})
				})
			}
			if r.err == nil && !r.out.Holds {
				tr.do("effpi.render_witness", req, id, func(int) { r.witness = effpi.RenderWitnessWithSource(r.out, sys.Map, 0) })
			}
			results = append(results, r)
		}
	})

	g.mu.Lock()
	defer g.mu.Unlock()
	rep.attempted++
	if extErr != nil {
		rep.fail("%s: extraction: %v", pkg, extErr)
		return
	}
	bad := func(format string, args ...any) {
		rep.notes = append(rep.notes, fmt.Sprintf(format, args...))
	}
	before := len(rep.notes)
	if ext.HasFatal() || len(ext.Systems) == 0 {
		bad("%s: extraction refused an entry or found none (%d diagnostics)", pkg, len(ext.Diagnostics))
	}
	for _, r := range results {
		want, ok := goExpected[r.sys.Name]
		switch {
		case r.err != nil:
			bad("%s: %v", r.sys.Name, r.err)
		case !ok:
			bad("%s: entry not in the verdict table", r.sys.Name)
		case r.out.Holds != want.holds:
			bad("%s: deadlock-free = %v, want %v", r.sys.Name, r.out.Holds, want.holds)
		case !r.out.Holds:
			var err error
			tr.do("effpi.replay", req, 0, func(int) { err = effpi.Replay(r.out) })
			if err != nil {
				bad("%s: witness fails replay: %v", r.sys.Name, err)
			} else if !strings.Contains(r.witness, ".go:") {
				bad("%s: witness carries no source position", r.sys.Name)
			}
		}
		if r.err == nil {
			rep.verdicts++
			g.last[r.sys.Name] = r.out
		}
	}
	g.systems[pkg] = ext.Systems
	st := ws.CacheStats()
	g.memos[pkg] = st.Memos
	g.evicted += st.Evictions
	if len(rep.notes) > before {
		rep.failed++
		return
	}
	rep.samples = append(rep.samples, sample{class: pkg, ms: ms(d), busy: true, light: g.light[pkg]})
	if len(rep.samples)%len(goPackages) == 0 {
		// A lap's worth of requests: close the peak-RSS window.
		rep.lapPeaksMB = append(rep.lapPeaksMB, peakRSSMB("self"))
		resetPeakRSS("self")
	}
}

// layers runs the decomposed pass: extraction per package, then each
// extracted system through the layer pipeline, cross-checked against
// the façade's verdict.
func (g *goSource) layers(cfg *config, tr *tracer, rep *report) (*layerReport, error) {
	lr := &layerReport{metrics: map[string]float64{}}
	var ph phases
	var extractMS float64
	var nsys, ndiag int
	var remainder float64
	self, count := tracerSelf(rep)
	verifyMean := self["effpi.verify"] / float64(max(count["effpi.verify"], 1))
	for _, j := range g.rng.Perm(len(goPackages)) {
		pkg := goPackages[j]
		req := "layers/" + pkg
		var ext *effpi.GoExtraction
		var err error
		extractMS += ms(tr.do("frontend.extract", req, 0, func(int) { ext, err = effpi.FromPackages(".", "./examples/"+pkg) }))
		if err != nil {
			return nil, err
		}
		nsys += len(ext.Systems)
		ndiag += len(ext.Diagnostics)
		for _, sys := range ext.Systems {
			row := &systems.System{Name: sys.Name, Env: sys.Env, Type: sys.Type,
				Props: []verify.Property{{Kind: verify.DeadlockFree, Closed: true}}}
			var rowPh phases
			verdicts, _, err := decompose(tr, req, typelts.NewCache(sys.Env, true), row, false, &rowPh)
			if err != nil {
				return nil, fmt.Errorf("%s: decomposed pass: %w", sys.Name, err)
			}
			if o := g.last[sys.Name]; o != nil && o.Holds != verdicts[0] {
				lr.mismatches = append(lr.mismatches, fmt.Sprintf("%s: decomposed=%v façade=%v", sys.Name, verdicts[0], o.Holds))
			}
			remainder += verifyMean - rowPh.total()
			ph.add(rowPh)
		}
	}
	ph.fill(lr)
	lr.metrics["verify.batch_remainder_ms"] = remainder

	var states, explored, fails, steps int
	for _, o := range g.last {
		states += o.States
		explored += o.StatesExplored
		if !o.Holds {
			fails++
			if o.Witness != nil {
				steps += len(o.Witness.Stem) + len(o.Witness.Cycle)
			}
		}
	}
	laps := float64(max(len(rep.samples)/len(goPackages), 1))
	lr.metrics["lts.states_explored"] = float64(explored)
	lr.metrics["lts.explored_ratio"] = float64(states) / float64(max(explored, 1))
	lr.metrics["verify.explorations_per_row"] = 1 // one property per entry
	memos := 0
	for _, m := range g.memos {
		memos += m
	}
	lr.metrics["effpi.cache_memos"] = float64(memos) / float64(len(goPackages))
	lr.metrics["effpi.cache_evictions"] = float64(g.evicted)
	lr.metrics["verify.fails"] = float64(fails)
	lr.metrics["verify.witness_steps"] = float64(steps)
	lr.metrics["verify.replay_ms"] = self["effpi.replay"] / laps
	lr.metrics["frontdoor.self_ms"] = (self["request"] + self["frontend.extract"] + self["effpi.new_session"]) / float64(max(len(rep.samples), 1))
	lr.extra = append(lr.extra,
		fmt.Sprintf("frontend.extract_ms %.4f ms per pass over the %d packages (decomposed pass)", extractMS, len(goPackages)),
		fmt.Sprintf("frontend.extract_ms %.4f ms per request (traced run, self time)", self["frontend.extract"]/float64(max(count["frontend.extract"], 1))),
		fmt.Sprintf("frontend.systems %d", nsys),
		fmt.Sprintf("frontend.diagnostics %d", ndiag),
		fmt.Sprintf("effpi.render_witness_ms %.4f ms per pass (RenderWitnessWithSource on FAIL)", self["effpi.render_witness"]/laps))
	return lr, nil
}
