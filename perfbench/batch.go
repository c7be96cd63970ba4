package main

// The two in-process batch workloads, fig9-cold and reduced-large: one
// closed-loop caller verifying whole rows (six properties in one
// Session.VerifyAll, fresh Workspace per row) in seeded order.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"effpi"
	"effpi/internal/lts"
	"effpi/internal/mucalc"
	"effpi/internal/systems"
	"effpi/internal/typelts"
	"effpi/internal/verify"
)

type batchSpec struct {
	name    string
	rows    []*systems.System
	reduced bool // symmetry and partial-order reduction on
	// seedLap is the lap time (s) at the commit that defined the
	// benchmark; it fixes the lap count of a run (lapsFor).
	seedLap float64
}

// fig9Cold is the 19 Fig. 9 rows plus Dining(7)/(8) in both variants
// and Ring(16,4), verified with reducers off.
func fig9Cold() batchSpec {
	rows := append(systems.Fig9Systems(),
		systems.DiningPhilosophers(7, true), systems.DiningPhilosophers(7, false),
		systems.DiningPhilosophers(8, true), systems.DiningPhilosophers(8, false),
		systems.Ring(16, 4))
	return batchSpec{name: "fig9-cold", rows: rows, seedLap: 2.5}
}

// reducedLarge is the rows symmetry and partial-order reduction were
// built for; several are shared with fig9-cold so a reducer's effect
// shows as a pair.
func reducedLarge() batchSpec {
	rows := []*systems.System{
		systems.PingPongPairs(10, false), systems.PingPongPairs(10, true), systems.PingPongPairs(12, false),
		systems.DiningPhilosophers(6, true), systems.DiningPhilosophers(8, true),
		systems.Ring(15, 3), systems.Ring(16, 4), systems.PaymentAudit(12),
	}
	return batchSpec{name: "reduced-large", rows: rows, reduced: true, seedLap: 1.15}
}

type batch struct {
	spec  batchSpec
	rng   *rand.Rand
	light map[string]bool // rows in the lighter half by states explored
	// last holds each row's outcomes from the latest measured lap, and
	// verifyMS its VerifyAll times, for the traced run's cross-checks.
	last     map[string][]*effpi.Outcome
	verifyMS map[string][]float64
	memos    map[string]int
	evicted  uint64
}

func newBatch(spec batchSpec) *batch { return &batch{spec: spec} }

func (b *batch) close() {}

func (b *batch) options() []effpi.Option {
	if b.spec.reduced {
		return []effpi.Option{effpi.WithSymmetry(effpi.SymmetryOn), effpi.WithPartialOrder(effpi.PartialOrderOn)}
	}
	return nil
}

// setup runs the untimed warm-up lap, checks it, and splits the rows
// into a light and a heavy half by the states they explore.
func (b *batch) setup(cfg *config) error {
	b.rng = rand.New(rand.NewSource(cfg.seed))
	b.verifyMS = map[string][]float64{}
	rep := &report{}
	b.lap(newTracer(false), rep, 0)
	if rep.failed > 0 {
		return fmt.Errorf("warm-up lap: %s", strings.Join(rep.notes, "; "))
	}
	explored := map[string]int{}
	names := make([]string, 0, len(b.spec.rows))
	for _, r := range b.spec.rows {
		for _, o := range b.last[r.Name] {
			explored[r.Name] += o.StatesExplored
		}
		names = append(names, r.Name)
	}
	sort.SliceStable(names, func(i, j int) bool { return explored[names[i]] < explored[names[j]] })
	b.light = map[string]bool{}
	for _, n := range names[:len(names)/2] {
		b.light[n] = true
	}
	return nil
}

func (b *batch) run(cfg *config, tr *tracer) (*report, error) {
	laps := lapsFor(cfg.seconds, b.spec.seedLap)
	rep := &report{tracer: tr}
	b.verifyMS = map[string][]float64{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 1; i <= laps; i++ {
		resetPeakRSS("self")
		verdicts, lapStart := rep.verdicts, time.Now()
		b.lap(tr, rep, i)
		rep.lapRates = append(rep.lapRates, float64(rep.verdicts-verdicts)/time.Since(lapStart).Seconds())
		rep.lapPeaksMB = append(rep.lapPeaksMB, peakRSSMB("self"))
	}
	rep.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	rep.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	return rep, nil
}

// lap verifies every row once, in seeded order. Lap 0 is the warm-up.
func (b *batch) lap(tr *tracer, rep *report, lap int) {
	ctx := context.Background()
	b.last = map[string][]*effpi.Outcome{}
	b.memos = map[string]int{}
	for _, i := range b.rng.Perm(len(b.spec.rows)) {
		row := b.spec.rows[i]
		req := fmt.Sprintf("lap%d/%s", lap, row.Name)
		var outs []*effpi.Outcome
		var err error
		var verifyDur time.Duration
		var ws *effpi.Workspace
		// Each row starts cold: the previous rows' garbage is collected
		// before the clock starts, not during this row.
		runtime.GC()
		d := tr.do("request", req, 0, func(id int) {
			var sess *effpi.Session
			tr.do("effpi.new_session", req, id, func(int) {
				ws = effpi.NewWorkspace()
				sess, err = ws.NewSessionFromType(row.Env, row.Type, b.options()...)
			})
			if err != nil {
				return
			}
			verifyDur = tr.do("effpi.verify_all", req, id, func(int) {
				outs, err = sess.VerifyAll(ctx, row.Props...)
			})
		})
		rep.attempted++
		if err != nil {
			rep.fail("%s: %v", row.Name, err)
			continue
		}
		st := ws.CacheStats()
		b.memos[row.Name] = st.Memos
		b.evicted += st.Evictions
		b.last[row.Name] = outs
		b.verifyMS[row.Name] = append(b.verifyMS[row.Name], ms(verifyDur))
		rep.verdicts += len(outs)
		rep.samples = append(rep.samples, sample{class: row.Name, ms: ms(d), busy: true, light: b.light[row.Name]})
		tr.do("gate", req, 0, func(id int) { checkRow(tr, req, id, row, outs, rep) })
	}
}

// checkRow is the correctness gate of one row: every verdict against
// the row's expected one, every FAIL witness through effpi.Replay.
func checkRow(tr *tracer, req string, parent int, row *systems.System, outs []*effpi.Outcome, rep *report) {
	if len(outs) != len(row.Props) {
		rep.fail("%s: %d outcomes for %d properties", row.Name, len(outs), len(row.Props))
		return
	}
	bad := false
	for _, o := range outs {
		if want := row.Expected[o.Property.Kind]; o.Holds != want {
			rep.notes = append(rep.notes, fmt.Sprintf("%s: %s = %v, want %v", row.Name, o.Property, o.Holds, want))
			bad = true
		}
		if o.Holds || o.Property.Kind == effpi.EventualOutput {
			continue
		}
		if o.Witness == nil {
			rep.notes = append(rep.notes, fmt.Sprintf("%s: %s FAIL without a witness", row.Name, o.Property))
			bad = true
			continue
		}
		var err error
		tr.do("effpi.replay", req, parent, func(int) { err = effpi.Replay(o) })
		if err != nil {
			rep.notes = append(rep.notes, fmt.Sprintf("%s: %s witness fails replay: %v", row.Name, o.Property, err))
			bad = true
		}
	}
	if bad {
		rep.failed++
	}
}

// phases are the decomposed pipeline's per-layer totals for one pass.
type phases struct {
	detect, explore, compile, check, decode, evUsage float64 // ms
	states, edges, product, automaton                int
	memos                                            int
	rows                                             int
}

func (p *phases) total() float64 {
	return p.detect + p.explore + p.compile + p.check + p.decode + p.evUsage
}

// decompose runs one row through the layers one public call at a time —
// ObservablesFor → (DetectSymmetry →) ExploreContext → Compile →
// CheckContext → DecodeWitness — on a cold cache, and returns the
// verdicts by property index. A property whose exploration the library
// runs under partial-order reduction has no public entry point for that
// step; it is left out (false in done), and its time stays inside the
// effpi.verify_all span.
func decompose(tr *tracer, req string, cache *typelts.Cache, row *systems.System, reduced bool, ph *phases) (verdicts []bool, done []bool, err error) {
	ctx := context.Background()
	verdicts = make([]bool, len(row.Props))
	done = make([]bool, len(row.Props))
	groups := map[string][]int{}
	var keys []string
	obsOf := map[string]map[string]bool{}
	for i, p := range row.Props {
		obs, err := verify.ObservablesFor(row.Env, p)
		if err != nil {
			return nil, nil, err
		}
		sort.Strings(obs)
		k := strings.Join(obs, ",")
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
			set := map[string]bool{}
			for _, x := range obs {
				set[x] = true
			}
			obsOf[k] = set
		}
		groups[k] = append(groups[k], i)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var sym *lts.Symmetry
		if reduced {
			if len(obsOf[k]) > 0 {
				continue
			}
			var pinned []string
			seen := map[string]bool{}
			for _, p := range row.Props {
				for _, c := range append(append([]string{}, p.Channels...), p.From, p.To) {
					if c != "" && !seen[c] {
						seen[c] = true
						pinned = append(pinned, c)
					}
				}
			}
			ph.detect += ms(tr.do("lts.detect_symmetry", req, 0, func(int) {
				sym = lts.DetectSymmetry(cache, row.Type, pinned)
			}))
			if sym == nil {
				continue // the library explores this group under POR
			}
		}
		sem := &typelts.Semantics{Env: row.Env, Observable: obsOf[k], WitnessOnly: true, Cache: cache}
		var m *lts.LTS
		ph.explore += ms(tr.do("lts.explore", req, 0, func(int) {
			m, err = lts.ExploreContext(ctx, sem, row.Type, lts.Options{Symmetry: sym})
		}))
		if err != nil {
			return nil, nil, err
		}
		ph.states += m.Len()
		ph.edges += m.NumEdges()
		for _, i := range groups[k] {
			p := row.Props[i]
			done[i] = true
			if p.Kind == verify.EventualOutput {
				ph.evUsage += ms(tr.do("verify.ev_usage", req, 0, func(int) {
					verdicts[i] = verify.EvUsageHolds(verify.NewUses(row.Env, m), m, p.Channels)
				}))
				continue
			}
			var phi mucalc.Formula
			ph.compile += ms(tr.do("verify.compile", req, 0, func(int) { phi, err = verify.Compile(row.Env, m, p) }))
			if err != nil {
				return nil, nil, err
			}
			var res mucalc.Result
			ph.check += ms(tr.do("mucalc.check", req, 0, func(int) { res, err = mucalc.CheckContext(ctx, m, phi) }))
			if err != nil {
				return nil, nil, err
			}
			ph.decode += ms(tr.do("verify.decode_witness", req, 0, func(int) { verify.DecodeWitness(m, res.Witness) }))
			ph.product += res.ProductStates
			ph.automaton += res.AutomatonStates
			verdicts[i] = res.Holds
		}
	}
	ph.memos += cache.Memos()
	ph.rows++
	return verdicts, done, nil
}

// layers runs the decomposed pass over every row (seeded order) and
// reports the per-layer metrics; the façade figures come from the
// traced run's outcomes.
func (b *batch) layers(cfg *config, tr *tracer, rep *report) (*layerReport, error) {
	lr := &layerReport{metrics: map[string]float64{}}
	var ph phases
	var remainder float64
	rows := b.spec.rows
	for _, i := range b.rng.Perm(len(rows)) {
		row := rows[i]
		var rowPh phases
		verdicts, done, err := decompose(tr, "layers/"+row.Name, typelts.NewCache(row.Env, true), row, b.spec.reduced, &rowPh)
		if err != nil {
			return nil, fmt.Errorf("%s: decomposed pass: %w", row.Name, err)
		}
		outs := b.last[row.Name]
		for j, o := range outs {
			if done[j] && verdicts[j] != o.Holds {
				lr.mismatches = append(lr.mismatches, fmt.Sprintf("%s: %s decomposed=%v façade=%v", row.Name, o.Property, verdicts[j], o.Holds))
			}
		}
		vms := median(b.verifyMS[row.Name])
		remainder += vms - rowPh.total()
		lr.extra = append(lr.extra, fmt.Sprintf("row %-40s verify_all %9.3f ms = detect %8.3f + explore %9.3f + compile %7.3f + check %8.3f + decode %6.3f + ev_usage %6.3f + remainder %9.3f",
			strconv.Quote(row.Name), vms, rowPh.detect, rowPh.explore, rowPh.compile, rowPh.check, rowPh.decode, rowPh.evUsage, vms-rowPh.total()))
		ph.add(rowPh)
	}
	b.facadeMetrics(lr, rep)
	ph.fill(lr)
	lr.metrics["verify.batch_remainder_ms"] = remainder
	lr.extra = append(lr.extra, fmt.Sprintf("lts.detect_symmetry_ms %.4f ms per pass (0 when reducers are off)", ph.detect))
	lr.extra = append(lr.extra, "POR's ample filter and the symmetric witness lift have no public entry point: their time is inside effpi.verify_all")
	return lr, nil
}

func (p *phases) add(q phases) {
	p.detect += q.detect
	p.explore += q.explore
	p.compile += q.compile
	p.check += q.check
	p.decode += q.decode
	p.evUsage += q.evUsage
	p.states += q.states
	p.edges += q.edges
	p.product += q.product
	p.automaton += q.automaton
	p.memos += q.memos
	p.rows += q.rows
}

// fill sets the decomposed-pipeline metrics: totals per pass over the
// workload's distinct inputs, memos per row.
func (p *phases) fill(lr *layerReport) {
	lr.metrics["lts.explore_ms"] = p.explore
	lr.metrics["lts.states"] = float64(p.states)
	lr.metrics["lts.edges"] = float64(p.edges)
	lr.metrics["lts.states_per_s"] = float64(p.states) / max(p.explore/1000, 1e-9)
	lr.metrics["verify.compile_ms"] = p.compile
	lr.metrics["mucalc.check_ms"] = p.check
	lr.metrics["mucalc.product_states"] = float64(p.product)
	lr.metrics["mucalc.automaton_states"] = float64(p.automaton)
	lr.metrics["typelts.memos_per_row"] = float64(p.memos) / float64(max(p.rows, 1))
}

// facadeMetrics fills the metrics read off the traced run's façade
// outcomes and spans: states explored, explorations per row, cache
// figures, replay, witnesses, and the front-door self time.
func (b *batch) facadeMetrics(lr *layerReport, rep *report) {
	var states, explored, lsets, fails, steps, memos int
	for _, row := range b.spec.rows {
		seen := map[*lts.LTS]bool{}
		for _, o := range b.last[row.Name] {
			if !seen[o.LTS] {
				seen[o.LTS] = true
				states += o.States
				explored += o.StatesExplored
			}
			if !o.Holds {
				fails++
				if o.Witness != nil {
					steps += len(o.Witness.Stem) + len(o.Witness.Cycle)
				}
			}
		}
		lsets += len(seen)
		memos += b.memos[row.Name]
	}
	n := float64(len(b.spec.rows))
	lr.metrics["lts.states_explored"] = float64(explored)
	lr.metrics["lts.explored_ratio"] = float64(states) / float64(max(explored, 1))
	lr.metrics["verify.explorations_per_row"] = float64(lsets) / n
	lr.metrics["effpi.cache_memos"] = float64(memos) / n
	lr.metrics["effpi.cache_evictions"] = float64(b.evicted)
	lr.metrics["verify.fails"] = float64(fails)
	lr.metrics["verify.witness_steps"] = float64(steps)
	self, _ := tracerSelf(rep)
	lr.metrics["verify.replay_ms"] = self["effpi.replay"] / float64(lapsOf(rep, len(b.spec.rows)))
	lr.metrics["frontdoor.self_ms"] = (self["request"] + self["effpi.new_session"]) / float64(max(len(rep.samples), 1))
}

// tracerSelf and lapsOf read the traced run's tracer, stashed on the
// report by the caller.
func tracerSelf(rep *report) (map[string]float64, map[string]int) {
	if rep.tracer == nil {
		return map[string]float64{}, map[string]int{}
	}
	return rep.tracer.selfTimes()
}

func lapsOf(rep *report, perLap int) int { return max(len(rep.samples)/max(perLap, 1), 1) }
