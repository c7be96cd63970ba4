package mucalc

import (
	"context"
	"fmt"

	"effpi/internal/lts"
	"effpi/internal/typelts"
)

// Result is the outcome of a model-checking query T |= ϕ.
type Result struct {
	// Holds reports whether every complete run satisfies ϕ.
	Holds bool
	// Counterexample, when Holds is false, is a lasso-shaped violating
	// run: Prefix followed by Cycle repeated forever.
	Counterexample *Trace
	// Witness, when Holds is false, is the same violating lasso with full
	// state identity: the LTS state visited at every position, which makes
	// the run machine-replayable (see Witness and verify.Replay).
	Witness *Witness
	// ProductStates is the number of product states visited, summed over
	// the clauses checked.
	ProductStates int
	// AutomatonStates is the summed size of the Büchi automata of the
	// checked clauses' negations.
	AutomatonStates int
}

// Trace is a lasso-shaped run.
type Trace struct {
	Prefix []typelts.Label
	Cycle  []typelts.Label
}

// Model is the checker's view of a state space. A static *lts.LTS is
// wrapped by LTSModel; lts.Incremental implements Model directly,
// materialising states on demand so the nested DFS drives exploration
// (on-the-fly checking, the early-exit mode of verify.Request).
//
// Label indices are stable: Labels() only ever grows, and Succ may grow
// both the state count and the alphabet.
type Model interface {
	// Initial is the initial state index.
	Initial() int
	// Succ returns the outgoing edges of state s. On-demand
	// implementations expand s here; the error (e.g. a state bound hit
	// mid-search) aborts the check.
	Succ(s int) ([]lts.Edge, error)
	// Labels is the dense label alphabet discovered so far.
	Labels() []typelts.Label
	// Len is the number of states discovered so far.
	Len() int
}

// ltsModel adapts a fully explored, immutable LTS to the Model interface.
type ltsModel struct{ m *lts.LTS }

func (x ltsModel) Initial() int                   { return x.m.Initial }
func (x ltsModel) Succ(s int) ([]lts.Edge, error) { return x.m.Out(s), nil }
func (x ltsModel) Labels() []typelts.Label        { return x.m.Labels }
func (x ltsModel) Len() int                       { return x.m.Len() }

// LTSModel wraps a fully explored LTS as a checker Model.
func LTSModel(m *lts.LTS) Model { return ltsModel{m: m} }

// CheckContext decides m |= ϕ over a fully explored LTS; see
// CheckModelContext. The LTS must be run-completed (every state has a
// successor), which lts.Explore guarantees.
func CheckContext(ctx context.Context, m *lts.LTS, phi Formula) (Result, error) {
	return CheckModelContext(ctx, LTSModel(m), phi)
}

// CheckModelContext decides m |= ϕ clause by clause. Every run must
// satisfy ϕ, so m |= ϕ1 ∧ … ∧ ϕk iff m |= ϕi for each i: the top-level
// conjunction is split (clauses), each clause's ¬-automaton is built
// from its action sets (negation), and the product of m with it is
// searched for an accepting cycle by nested DFS. The clauses are checked
// in order and the first one that fails ends the check; its lasso, which
// violates ϕ, is the counterexample. A clause made vacuous by a
// known-empty action set is skipped. A formula with a clause outside the
// four patterns, ⊤ and ⊥ is an error before any search starts.
//
// With an on-demand model (lts.Incremental) the search is on-the-fly:
// LTS states are materialised only when the blue DFS first needs their
// successors, so a violation found early leaves the rest of the state
// space unexplored. PASS verdicts still visit the full
// (automaton-reachable) product of every clause.
//
// The search is dense: each automaton state's guard is precomputed into
// an admit bitset over the LTS's label alphabet, product colours live in
// a flat slice indexed by state*(|BA|+1)+q, and both DFS passes enumerate
// successors lazily with per-frame cursors. Both passes poll ctx every
// checkCancelStride state visits and return an error wrapping ctx.Err()
// once the context is done; a model error (a state bound hit mid-search)
// is returned too. Either invalidates the Result.
func CheckModelContext(ctx context.Context, m Model, phi Formula) (Result, error) {
	var automata []*Buchi
	for _, c := range clauses(phi, nil) {
		ba, err := negation(c)
		if err != nil {
			return Result{}, err
		}
		if ba != nil {
			automata = append(automata, ba)
		}
	}
	res := Result{Holds: true}
	var blue, red []frame
	for _, ba := range automata {
		p := newProduct(m, ba)
		p.blue, p.red = blue, red
		if ctx != nil && ctx.Done() != nil {
			p.ctx = ctx
		}
		w, visited := p.findAcceptingLasso()
		blue, red = p.blue, p.red
		res.ProductStates += visited
		res.AutomatonStates += ba.Len()
		if p.err != nil {
			return res, p.err
		}
		if w != nil {
			res.Holds, res.Witness, res.Counterexample = false, w, w.Trace(m.Labels())
			break
		}
	}
	return res, nil
}

// product is the synchronous product of an LTS and a Büchi automaton.
// Product states are encoded as int: lts-state * (|BA|+1) + (ba+1),
// with ba = -1 encoding the automaton's virtual initial state.
type product struct {
	m      Model
	ba     *Buchi
	stride int // |BA| + 1

	// admit[q] is the bitset of label indices whose labels satisfy the
	// guard of automaton state q, covering the first `baked` labels of the
	// model's alphabet. On-demand models grow their alphabet during the
	// search; bakeLabels extends every row when a new index appears.
	admit [][]uint64
	baked int

	marks markStore

	// blue and red are the two DFS stacks. Their capacity is kept across
	// the red searches of one product and handed from one clause's
	// product to the next (CheckModelContext); redDFS copies the cycle it
	// finds out of red, and assemble copies the stem out of blue.
	blue, red []frame

	// err records a model error (state bound hit mid-expansion) or a
	// cancelled context; the search aborts as soon as it is set.
	err error
	// ctx, when non-nil, is polled every checkCancelStride visits of
	// either DFS pass; visits counts them.
	ctx    context.Context
	visits int
}

// checkCancelStride is how many product-state visits pass between
// context polls: visits are tens of nanoseconds, so this bounds the
// cancellation latency to microseconds without touching the hot path.
const checkCancelStride = 1024

// pollCtx checks for cancellation every checkCancelStride visits,
// recording the wrapped context error in p.err.
func (p *product) pollCtx() bool {
	if p.ctx == nil {
		return false
	}
	p.visits++
	if p.visits%checkCancelStride != 0 {
		return false
	}
	if err := p.ctx.Err(); err != nil {
		p.err = fmt.Errorf("mucalc: check cancelled after %d product states: %w", p.visits, err)
		return true
	}
	return false
}

// Colour/flag values packed into one byte per product state: the low two
// bits are the blue-DFS colour, bit 2 is the red-DFS visited flag.
const (
	colorWhite = 0
	colorCyan  = 1 // on the blue DFS stack
	colorBlue  = 2 // blue DFS finished
	colorMask  = 3
	redFlag    = 4
)

// markStore keeps the per-product-state byte. Product spaces up to
// maxDenseMarks states use a flat slice (the common case: no benchmark
// workload reaches a hundredth of it, see DESIGN.md §Dense nested DFS),
// growing geometrically when an on-demand model discovers new states;
// anything beyond the dense cap falls back to a sparse map so memory
// stays bounded by the visited set. The two regimes coexist: ids below
// the dense length stay dense, the overflow lives in the map.
type markStore struct {
	dense  []uint8
	sparse map[int]uint8
}

const maxDenseMarks = 1 << 27

func newMarkStore(size int) markStore {
	if size >= 0 && size <= maxDenseMarks {
		return markStore{dense: make([]uint8, size)}
	}
	return markStore{sparse: map[int]uint8{}}
}

func (s *markStore) get(id int) uint8 {
	if id < len(s.dense) {
		return s.dense[id]
	}
	return s.sparse[id]
}

func (s *markStore) put(id int, v uint8) {
	if id < len(s.dense) {
		s.dense[id] = v
		return
	}
	if s.sparse == nil && id < maxDenseMarks {
		n := 2 * len(s.dense)
		if n <= id {
			n = id + 1
		}
		if n > maxDenseMarks {
			n = maxDenseMarks
		}
		grown := make([]uint8, n)
		copy(grown, s.dense)
		s.dense = grown
		s.dense[id] = v
		return
	}
	if s.sparse == nil {
		s.sparse = make(map[int]uint8, 1024)
	}
	s.sparse[id] = v
}

func (s *markStore) or(id int, bits uint8) { s.put(id, s.get(id)|bits) }

func (s *markStore) setColor(id int, c uint8) { s.put(id, s.get(id)&^colorMask|c) }

func newProduct(m Model, ba *Buchi) *product {
	p := &product{
		m:      m,
		ba:     ba,
		stride: ba.Len() + 1,
		admit:  make([][]uint64, ba.Len()),
	}
	p.bakeLabels()
	p.marks = newMarkStore(m.Len() * p.stride)
	return p
}

// bakeLabels extends every automaton state's admit bitset to cover the
// labels discovered since the last bake. Indices are stable, so already
// baked bits never change.
func (p *product) bakeLabels() {
	labels := p.m.Labels()
	if len(labels) == p.baked {
		return
	}
	words := (len(labels) + 63) / 64
	for q := range p.admit {
		row := p.admit[q]
		for len(row) < words {
			row = append(row, 0)
		}
		for i := p.baked; i < len(labels); i++ {
			if p.ba.Admits(q, labels[i]) {
				row[i>>6] |= 1 << (uint(i) & 63)
			}
		}
		p.admit[q] = row
	}
	p.baked = len(labels)
}

func (p *product) encode(s, q int) int { return s*p.stride + q + 1 }

func (p *product) admits(q int, label int32) bool {
	if int(label) >= p.baked {
		p.bakeLabels()
	}
	return p.admit[q][label>>6]&(1<<(uint(label)&63)) != 0
}

func (p *product) baSucc(q int) []int {
	if q < 0 {
		return p.ba.Init
	}
	return p.ba.Succ[q]
}

func (p *product) accepting(id int) bool {
	q := id%p.stride - 1
	return q >= 0 && p.ba.Accepting[q]
}

// frame is one DFS frame: a product state plus the cursor (ei, bi) into
// its successor enumeration (LTS edge index × automaton successor index).
// via is the label of the successor edge most recently yielded — a moving
// cursor register, which for every frame below the top of the blue stack
// is exactly the edge leading to its child frame. in, by contrast, is
// immutable: the label of the edge that *reached* this frame when it was
// pushed, which is what red-DFS cycle reconstruction needs (via would be
// clobbered by the frame's own outgoing iteration).
type frame struct {
	id     int
	s, q   int
	ei, bi int
	via    int32
	hasVia bool
	in     int32
	// edges caches the LTS successors of s after the first advance: a
	// state's edge slice never changes once produced (true for static
	// models and for expanded Incremental states), and fetching it
	// through the Model interface on every yield would put a dynamic
	// dispatch in the innermost loop of the search.
	edges   []lts.Edge
	fetched bool
}

func (p *product) newFrame(id int) frame {
	return frame{id: id, s: id / p.stride, q: id%p.stride - 1}
}

// advance yields the next product successor of f, moving its cursor. On a
// model error it records p.err and reports exhaustion; the caller must
// check p.err before trusting an empty enumeration.
func (p *product) advance(f *frame) (int, bool) {
	if !f.fetched {
		edges, err := p.m.Succ(f.s)
		if err != nil {
			p.err = err
			return 0, false
		}
		f.edges = edges
		f.fetched = true
	}
	bs := p.baSucc(f.q)
	for f.ei < len(f.edges) {
		e := f.edges[f.ei]
		for f.bi < len(bs) {
			qq := bs[f.bi]
			f.bi++
			if p.admits(qq, e.Label) {
				f.via = e.Label
				f.hasVia = true
				return p.encode(int(e.Dst), qq), true
			}
		}
		f.ei++
		f.bi = 0
	}
	return 0, false
}

// findAcceptingLasso runs the CVWY nested depth-first search (with the
// Holzmann-Peled-Yannakakis cyan improvement): the outer (blue) DFS
// visits states in post-order; whenever an accepting state is retired,
// an inner (red) DFS looks for a cycle back to it or to any state still
// on the blue stack. The returned witness carries the LTS state at every
// position of the lasso (see assemble).
func (p *product) findAcceptingLasso() (*Witness, int) {
	start := p.encode(p.m.Initial(), -1)
	visited := 0

	if p.blue == nil {
		p.blue = make([]frame, 0, 64)
	}
	stack := p.blue[:0]
	defer func() { p.blue = stack[:0] }()
	push := func(id int) {
		p.marks.setColor(id, colorCyan)
		visited++
		stack = append(stack, p.newFrame(id))
	}
	push(start)

	for len(stack) > 0 {
		if p.pollCtx() {
			return nil, visited
		}
		top := &stack[len(stack)-1]
		if next, ok := p.advance(top); ok {
			if p.marks.get(next)&colorMask == colorWhite {
				push(next)
			}
			continue
		}
		if p.err != nil {
			return nil, visited
		}
		// Post-order retirement.
		retired := *top
		stack = stack[:len(stack)-1]
		if p.accepting(retired.id) {
			if cyc := p.redDFS(retired.id); cyc != nil {
				return p.assemble(stack, retired, cyc), visited
			}
			if p.err != nil {
				return nil, visited
			}
		}
		p.marks.setColor(retired.id, colorBlue)
	}
	return nil, visited
}

// redDFS searches from seed for a path back to seed or to a cyan state.
// It returns the frames of that path (the cycle body), or nil.
func (p *product) redDFS(seed int) []frame {
	if p.red == nil {
		p.red = make([]frame, 0, 32)
	}
	stack := append(p.red[:0], p.newFrame(seed))
	defer func() { p.red = stack[:0] }()
	p.marks.or(seed, redFlag)
	for len(stack) > 0 {
		if p.pollCtx() {
			return nil
		}
		top := &stack[len(stack)-1]
		next, ok := p.advance(top)
		if !ok {
			if p.err != nil {
				return nil
			}
			stack = stack[:len(stack)-1]
			continue
		}
		if next == seed || p.marks.get(next)&colorMask == colorCyan {
			// Cycle found: path seed → ... → top → next (where next is
			// the seed itself or an ancestor of it on the blue stack).
			closing := p.newFrame(next)
			closing.in = top.via // label that reached `next`
			path := make([]frame, len(stack), len(stack)+1)
			copy(path, stack)
			return append(path, closing)
		}
		if p.marks.get(next)&redFlag == 0 {
			p.marks.or(next, redFlag)
			nf := p.newFrame(next)
			nf.in = top.via
			stack = append(stack, nf)
		}
	}
	return nil
}

// assemble reconstructs the violating lasso as a state-level witness: the
// blue stack gives the stem from the initial state down to the seed (the
// lasso head); the red path gives the cycle, possibly closed through a
// cyan blue-stack segment. Every blue frame's via is the edge to the
// frame above it (the seed for the last one), and every red frame's in is
// the edge that reached it, so states and labels pair up exactly.
func (p *product) assemble(blue []frame, seed frame, redPath []frame) *Witness {
	w := &Witness{}
	// Stem: initial state, then one step per blue frame. Every blue frame
	// has yielded its child (hasVia), but stay defensive: a frame without
	// a via cannot contribute a step.
	w.StemStates = append(w.StemStates, p.m.Initial())
	for i := range blue {
		if !blue[i].hasVia {
			continue
		}
		dst := seed.s
		if i+1 < len(blue) {
			dst = blue[i+1].s
		}
		w.StemLabels = append(w.StemLabels, blue[i].via)
		w.StemStates = append(w.StemStates, dst)
	}
	// Cycle: the red path from the seed. redPath[0] is the seed itself (no
	// incoming label); every later frame records the label that reached it.
	w.CycleStates = append(w.CycleStates, seed.s)
	for _, st := range redPath[1:] {
		w.CycleLabels = append(w.CycleLabels, st.in)
		w.CycleStates = append(w.CycleStates, st.s)
	}
	closing := redPath[len(redPath)-1].id
	if closing != seed.id {
		// The red path ended on a cyan state above the seed: close the
		// lasso by following the blue stack from that state back down to
		// the seed.
		idx := -1
		for i := range blue {
			if blue[i].id == closing {
				idx = i
				break
			}
		}
		if idx >= 0 {
			for i := idx; i < len(blue); i++ {
				if !blue[i].hasVia {
					continue
				}
				dst := seed.s
				if i+1 < len(blue) {
					dst = blue[i+1].s
				}
				w.CycleLabels = append(w.CycleLabels, blue[i].via)
				w.CycleStates = append(w.CycleStates, dst)
			}
		}
	}
	return w
}
