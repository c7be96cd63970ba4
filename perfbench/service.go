package main

// service-warm: a prebuilt effpid child under a closed loop, first with
// one connection (light) and then with two (busy). Requests are seeded
// `system` requests over the small and medium Fig. 9 rows plus Dining(8,
// deadlock) — a fixed share of them with early_exit, symmetry or
// partial_order set — and a fixed share of README-style `source`
// programs with binds. Rows repeat, so effpid's workspace cache is read
// warm, not filled.
//
// An open loop at fixed offered rates was tried first. On a 2-vCPU
// virtual machine its latencies moved by 30-40% from run to run, whatever
// the rate: between arrivals the vCPUs go idle, and how long the host
// takes to wake them sets the latency of small requests. Back-to-back
// requests keep them awake.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"effpi"
	"effpi/internal/core"
	"effpi/internal/lts"
	"effpi/internal/systems"
	"effpi/internal/typelts"
)

// sourceProgram is a README-style request: an .epi program with binds
// and properties, and the verdicts it must get.
type sourceProgram struct {
	id    string
	src   string
	binds []effpi.Binding
	props []propSpec
}

type propSpec struct {
	Kind     string   `json:"kind"`
	Channels []string `json:"channels,omitempty"`
	From     string   `json:"from,omitempty"`
	To       string   `json:"to,omitempty"`
	holds    bool
}

var sourcePrograms = []sourceProgram{
	{id: "src/send-only", src: `send(c, 1, fun (_: Unit) => end)`,
		binds: []effpi.Binding{{Name: "c", Type: "Chan[Int]"}},
		props: []propSpec{{Kind: "deadlock-free", Channels: []string{"c"}, holds: false},
			{Kind: "ev-usage", Channels: []string{"c"}, holds: false}}},
	{id: "src/ping", src: `send(c, 42, fun (_: Unit) => end) || recv(c, fun (x: Int) => end)`,
		binds: []effpi.Binding{{Name: "c", Type: "Chan[Int]"}},
		props: []propSpec{{Kind: "deadlock-free", Channels: []string{"c"}, holds: true},
			{Kind: "ev-usage", Channels: []string{"c"}, holds: true},
			{Kind: "non-usage", Channels: []string{"c"}, holds: false}}},
	{id: "src/recv-only", src: `recv(x, fun (v: Int) => end)`,
		binds: []effpi.Binding{{Name: "x", Type: "Chan[Int]"}},
		props: []propSpec{{Kind: "deadlock-free", Channels: []string{"x"}, holds: false},
			{Kind: "reactive", From: "x", holds: false}}},
	{id: "src/relay", src: `recv(a, fun (v: Int) => send(b, v, fun (_: Unit) => end)) || send(a, 7, fun (_: Unit) => end) || recv(b, fun (w: Int) => end)`,
		binds: []effpi.Binding{{Name: "a", Type: "Chan[Int]"}, {Name: "b", Type: "Chan[Int]"}},
		props: []propSpec{{Kind: "deadlock-free", Channels: []string{"a", "b"}, holds: true},
			{Kind: "ev-usage", Channels: []string{"b"}, holds: true},
			{Kind: "responsive", From: "a", holds: false}}},
}

// template is one kind of request; a deck holds each template once.
type template struct {
	id   string
	body []byte
	row  *systems.System // system requests
	src  *sourceProgram  // source requests
	flag string          // "", "early_exit", "symmetry" or "partial_order"
}

// deck builds the request templates: every small and medium Fig. 9 row
// plus Dining(8, deadlock) plain, three rows with one reduction flag
// each, and the source programs.
func deck() []*template {
	var ts []*template
	add := func(row *systems.System, flag string) {
		req := map[string]any{"system": row.Name}
		id := row.Name
		switch flag {
		case "early_exit":
			req[flag] = true
		case "symmetry", "partial_order":
			req[flag] = "on"
		}
		if flag != "" {
			id += " +" + flag
		}
		body, _ := json.Marshal(req)
		ts = append(ts, &template{id: id, body: body, row: row, flag: flag})
	}
	for _, r := range systems.Fig9Systems() {
		if strings.HasPrefix(r.Name, "Ping-pong (10") {
			continue // the large rows: seconds each, not a service request
		}
		add(r, "")
	}
	add(systems.DiningPhilosophers(8, true), "")
	add(systems.DiningPhilosophers(6, true), "early_exit")
	add(systems.Ring(10, 3), "symmetry")
	add(systems.PingPongPairs(6, false), "partial_order")
	for i := range sourcePrograms {
		p := &sourcePrograms[i]
		body, _ := json.Marshal(map[string]any{"source": p.src, "binds": bindsJSON(p.binds), "properties": p.props})
		ts = append(ts, &template{id: p.id, body: body, src: p})
	}
	return ts
}

func bindsJSON(bs []effpi.Binding) []map[string]string {
	out := make([]map[string]string, len(bs))
	for i, b := range bs {
		out[i] = map[string]string{"name": b.Name, "type": b.Type}
	}
	return out
}

// expected is a template's verdict list, in request property order.
func (t *template) expected() []bool {
	var out []bool
	if t.row != nil {
		for _, p := range t.row.Props {
			out = append(out, t.row.Expected[p.Kind])
		}
		return out
	}
	for _, p := range t.src.props {
		out = append(out, p.holds)
	}
	return out
}

type service struct {
	effpid  *child
	pid     string
	base    string
	client  *http.Client
	rng     *rand.Rand
	deck    []*template
	traced  []reply // the traced run's replies (for effpid.* figures)
	rejects int
}

type wireResult struct {
	Property   string  `json:"property"`
	Holds      bool    `json:"holds"`
	States     int     `json:"states"`
	DurationMS float64 `json:"duration_ms"`
	Witness    *struct {
		Stem     []json.RawMessage `json:"stem"`
		Cycle    []json.RawMessage `json:"cycle"`
		Replayed bool              `json:"replayed"`
	} `json:"witness"`
}

type wireResponse struct {
	Results    []wireResult `json:"results"`
	DurationMS float64      `json:"duration_ms"`
	Error      string       `json:"error"`
	Kind       string       `json:"kind"`
}

// reply is one completed request.
type reply struct {
	t      *template
	sent   time.Time
	done   time.Time
	status int
	resp   wireResponse
	err    error
	light  bool
}

func (s *service) close() {
	if s.effpid != nil {
		s.effpid.stop()
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// setup starts effpid (own process group; see procs.go), waits until
// /readyz answers 200, and runs the warm-up lap: every template once.
func (s *service) setup(cfg *config) error {
	if cfg.effpid == "" {
		return fmt.Errorf("service-warm needs --effpid")
	}
	port, err := freePort()
	if err != nil {
		return err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	// Two jobs at a time, each exploring on one worker: the two CPUs are
	// not oversubscribed, which keeps the latencies of small requests
	// steady from run to run. -pprof exposes the heap profile that
	// alloc_mb_per_verdict reads.
	cmd := exec.Command(cfg.effpid, "-addr", addr, "-workers", "2", "-par", "1", "-pprof")
	cmd.Stderr = os.Stderr
	if s.effpid, err = startChild("effpid", cmd); err != nil {
		return err
	}
	s.pid = strconv.Itoa(cmd.Process.Pid)
	fmt.Fprintf(os.Stderr, "perfbench: effpid pid %s on %s\n", s.pid, addr)
	s.base = "http://" + addr
	s.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		Timeout:   60 * time.Second,
	}
	readyBy := time.Now().Add(30 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case <-s.effpid.done:
			return fmt.Errorf("effpid exited before it was ready")
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(readyBy) {
			return fmt.Errorf("effpid not ready after 30s")
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: effpid ready\n")
	s.rng = rand.New(rand.NewSource(cfg.seed))
	s.deck = deck()
	rep := &report{}
	for _, t := range s.deck {
		r := s.send(t)
		s.check(&r, rep)
	}
	if rep.failed > 0 {
		return fmt.Errorf("warm-up lap: %s", strings.Join(rep.notes, "; "))
	}
	return nil
}

// send posts one request and decodes the reply.
func (s *service) send(t *template) reply {
	r := reply{t: t, sent: time.Now()}
	resp, err := s.client.Post(s.base+"/v1/verify", "application/json", bytes.NewReader(t.body))
	if err != nil {
		r.err = err
		r.done = time.Now()
		return r
	}
	r.status = resp.StatusCode
	r.err = json.NewDecoder(resp.Body).Decode(&r.resp)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	return r
}

// check is the correctness gate of one reply: status, verdicts against
// the template's expected ones, and a replayed witness on every FAIL
// that has one (ev-usage failures are existential and carry none).
func (s *service) check(r *reply, rep *report) bool {
	rep.attempted++
	fail := func(format string, args ...any) bool {
		rep.fail("%s: "+format, append([]any{r.t.id}, args...)...)
		return false
	}
	switch {
	case r.err != nil:
		return fail("%v", r.err)
	case r.status == http.StatusTooManyRequests:
		s.rejects++
		return fail("429 %s", r.resp.Error)
	case r.status != http.StatusOK:
		return fail("status %d %s: %s", r.status, r.resp.Kind, r.resp.Error)
	}
	want := r.t.expected()
	if len(r.resp.Results) != len(want) {
		return fail("%d results for %d properties", len(r.resp.Results), len(want))
	}
	for i, res := range r.resp.Results {
		if res.Holds != want[i] {
			return fail("%s = %v, want %v", res.Property, res.Holds, want[i])
		}
		if !res.Holds && !strings.HasPrefix(res.Property, "ev-usage") && (res.Witness == nil || !res.Witness.Replayed) {
			return fail("%s FAIL without a replayed witness", res.Property)
		}
	}
	rep.verdicts += len(r.resp.Results)
	return true
}

// order is a phase's requests: whole decks, each in seeded order.
func (s *service) order(n int) []*template {
	var ts []*template
	for len(ts) < n {
		for _, i := range s.rng.Perm(len(s.deck)) {
			ts = append(ts, s.deck[i])
		}
	}
	return ts
}

// phase sends the requests back to back over conns connections.
func (s *service) phase(ts []*template, conns int, light bool) []reply {
	replies := make([]reply, len(ts))
	work := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				replies[i] = s.send(ts[i])
				replies[i].light = light
			}
		}()
	}
	for i := range ts {
		work <- i
	}
	close(work)
	wg.Wait()
	return replies
}

// phaseSizes is the fixed work of a run, in whole decks: 0.8 light and
// 1.6 busy decks per second of run length (300 and 600 requests, about
// 7 s each, at --seconds 15).
func (s *service) phaseSizes(seconds int) (int, int) {
	light := max(1, int(float64(seconds)*0.8+0.5))
	busy := max(1, int(float64(seconds)*1.6+0.5))
	return light * len(s.deck), busy * len(s.deck)
}

func (s *service) run(cfg *config, tr *tracer) (*report, error) {
	nLight, nBusy := s.phaseSizes(cfg.seconds)
	rep := &report{tracer: tr}
	allocBefore, err := s.totalAllocMB()
	if err != nil {
		return nil, err
	}
	resetPeakRSS(s.pid)
	start := time.Now()
	replies := s.phase(s.order(nLight), 1, true)
	replies = append(replies, s.phase(s.order(nBusy), 2, false)...)
	rep.elapsed = time.Since(start)
	allocAfter, err := s.totalAllocMB()
	if err != nil {
		return nil, err
	}
	rep.allocMB = allocAfter - allocBefore
	rep.peakRSSMB = peakRSSMB(s.pid)
	for i := range replies {
		r := &replies[i]
		if !s.check(r, rep) {
			continue
		}
		lat := ms(r.done.Sub(r.sent))
		rep.samples = append(rep.samples, sample{class: r.t.id, ms: lat, light: r.light, busy: !r.light})
		if tr.on {
			id := tr.record("request", r.t.id, 0, r.sent, r.done)
			srvEnd := r.sent.Add(time.Duration(r.resp.DurationMS * float64(time.Millisecond)))
			tr.record("effpid.server", r.t.id, id, r.sent, srvEnd)
		}
	}
	if tr.on {
		s.traced = replies
	}
	return rep, nil
}

// totalAllocMB reads effpid's cumulative allocation from its heap
// profile's runtime.MemStats trailer (the -pprof endpoint).
func (s *service) totalAllocMB() (float64, error) {
	resp, err := s.client.Get(s.base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			n, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return n / (1 << 20), err
		}
	}
	return 0, fmt.Errorf("effpid heap profile has no TotalAlloc line")
}

// layers reports the wire figures of the traced run and runs the
// decomposed pass over the deck in-process: rows on warm caches (as
// effpid serves them) and the source programs through the parser and
// type checker.
func (s *service) layers(cfg *config, tr *tracer, rep *report) (*layerReport, error) {
	lr := &layerReport{metrics: map[string]float64{}}
	var serverMS, overheadMS []float64
	for _, r := range s.traced {
		if r.err != nil || r.status != http.StatusOK || r.light {
			continue
		}
		serverMS = append(serverMS, r.resp.DurationMS)
		overheadMS = append(overheadMS, ms(r.done.Sub(r.sent))-r.resp.DurationMS)
	}
	lr.metrics["frontdoor.self_ms"] = mean(overheadMS)
	lr.extra = append(lr.extra,
		fmt.Sprintf("effpid.server_ms p50 %.4f ms (response duration_ms, busy phase, n=%d)", median(serverMS), len(serverMS)),
		fmt.Sprintf("effpid.overhead_ms mean %.4f ms p50 %.4f ms (client round trip minus server time)", mean(overheadMS), median(overheadMS)),
		fmt.Sprintf("effpid.rejected %d", s.rejects))

	m, err := s.metrics()
	if err != nil {
		return nil, err
	}
	lr.metrics["effpi.cache_memos"] = m["cache_memos"]
	lr.metrics["effpi.cache_evictions"] = m["cache_evictions"]

	// In-process replica of the deck: one warm workspace like effpid's.
	ctx := context.Background()
	ws := effpi.NewWorkspace()
	var ph phases
	var states, explored, lsets, fails, steps, systemsN int
	var replayMS, remainder float64
	var parseUS, checkUS []float64
	for _, i := range s.rng.Perm(len(s.deck)) {
		t := s.deck[i]
		req := "layers/" + t.id
		row := t.row
		if t.src != nil {
			env, err := effpi.BuildEnv(t.src.binds)
			if err != nil {
				return nil, err
			}
			var prog *core.Program
			parseUS = append(parseUS, 1000*ms(tr.do("syntax.parse", req, 0, func(int) { prog, err = core.ParseInEnv(t.src.src, env) })))
			if err != nil {
				return nil, err
			}
			var typ effpi.Type
			checkUS = append(checkUS, 1000*ms(tr.do("typecheck.check", req, 0, func(int) { typ, err = prog.Check() })))
			if err != nil {
				return nil, err
			}
			row = &systems.System{Name: t.id, Env: env, Type: typ}
			for _, p := range t.src.props {
				prop, err := effpi.PropertyFromSpec(p.Kind, p.Channels, p.From, p.To, true)
				if err != nil {
					return nil, err
				}
				row.Props = append(row.Props, prop)
			}
		}
		var opts []effpi.Option
		switch t.flag {
		case "early_exit":
			opts = append(opts, effpi.WithEarlyExit(true))
		case "symmetry":
			opts = append(opts, effpi.WithSymmetry(effpi.SymmetryOn))
		case "partial_order":
			opts = append(opts, effpi.WithPartialOrder(effpi.PartialOrderOn))
		}
		sess, err := ws.NewSessionFromType(row.Env, row.Type, opts...)
		if err != nil {
			return nil, err
		}
		sess.VerifyAll(ctx, row.Props...) // warm the replica's cache, as effpid's is
		var outs []*effpi.Outcome
		vms := ms(tr.do("effpi.verify_all", req, 0, func(int) { outs, err = sess.VerifyAll(ctx, row.Props...) }))
		if err != nil {
			return nil, err
		}
		cache := typelts.NewCache(row.Env, true)
		var warm, rowPh phases
		decompose(newTracer(false), req, cache, row, t.flag == "symmetry", &warm)
		verdicts, done, err := decompose(tr, req, cache, row, t.flag == "symmetry", &rowPh)
		if err != nil {
			return nil, fmt.Errorf("%s: decomposed pass: %w", t.id, err)
		}
		want := t.expected()
		seen := map[*lts.LTS]bool{}
		for j, o := range outs {
			if o.Holds != want[j] || (done[j] && verdicts[j] != o.Holds) {
				lr.mismatches = append(lr.mismatches, fmt.Sprintf("%s: %s façade=%v decomposed=%v want %v", t.id, o.Property, o.Holds, verdicts[j], want[j]))
			}
			if !seen[o.LTS] {
				seen[o.LTS] = true
				states += o.States
				explored += o.StatesExplored
			}
			if !o.Holds && o.Witness != nil {
				fails++
				steps += len(o.Witness.Stem) + len(o.Witness.Cycle)
				replayMS += ms(tr.do("effpi.replay", req, 0, func(int) { err = effpi.Replay(o) }))
				if err != nil {
					lr.mismatches = append(lr.mismatches, fmt.Sprintf("%s: %s witness fails replay: %v", t.id, o.Property, err))
				}
			}
		}
		lsets += len(seen)
		systemsN++
		remainder += vms - rowPh.total()
		ph.add(rowPh)
	}
	ph.fill(lr)
	lr.metrics["lts.states_explored"] = float64(explored)
	lr.metrics["lts.explored_ratio"] = float64(states) / float64(max(explored, 1))
	lr.metrics["verify.explorations_per_row"] = float64(lsets) / float64(max(systemsN, 1))
	lr.metrics["verify.batch_remainder_ms"] = remainder
	lr.metrics["verify.replay_ms"] = replayMS
	lr.metrics["verify.witness_steps"] = float64(steps)
	lr.metrics["verify.fails"] = float64(fails)
	sort.Float64s(parseUS)
	lr.extra = append(lr.extra,
		fmt.Sprintf("syntax.parse_us %.3f us per source program (median, core.ParseInEnv)", median(parseUS)),
		fmt.Sprintf("typecheck.check_us %.3f us per source program (median, Program.Check)", median(checkUS)),
		fmt.Sprintf("lts.detect_symmetry_ms %.4f ms per pass (the symmetry template)", ph.detect),
		"the decomposed pass and the replica run in the benchmark process on the deck's inputs; effpid itself is timed only on the wire")
	return lr, nil
}

// metrics reads effpid's /metrics document.
func (s *service) metrics() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw := map[string]json.RawMessage{}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for k, v := range raw {
		var f float64
		if json.Unmarshal(v, &f) == nil {
			out[k] = f
		}
	}
	return out, nil
}

func mean(xs []float64) float64 { return sum(xs) / float64(max(len(xs), 1)) }
