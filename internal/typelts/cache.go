package typelts

import (
	"fmt"
	"slices"
	"sync"

	"effpi/internal/types"
)

// Cache memoises the two questions exploration asks of the transition
// semantics, both keyed by interned identity: what one component can do
// (comp: its raw steps plus the port summary that lets exploration skip
// pairs that cannot synchronise, see Component) and how an ordered pair
// of components synchronises (sync). It also owns the type interner
// those keys come from. A single Cache shared by the six Fig. 9
// property checks of one system makes their explorations reuse each
// other's per-component work, because the cache key — the interned type —
// is independent of the Y-limitation (Observable), which is applied as a
// filter on top of the cached raw steps.
//
// A Cache is bound to one environment Γ and one WitnessOnly mode: raw
// steps depend on both (early-input candidates are drawn from Γ). A
// Semantics with a mismatching cache ignores it rather than serving
// wrong entries.
//
// Cache is safe for concurrent use: one mutex guards the two memo maps,
// so one cache can serve many simultaneous explorations (the Interner
// inside is independently concurrency-safe). Entries are computed
// outside the lock, immutable once published and first-write-wins: when
// two goroutines race to compute the same entry, both compute the same
// result from the interner's representative of the key (not from
// whichever syntactic variant a caller happened to pass), and the
// earlier store sticks, so readers never observe an entry changing.
// That keeps entry content independent of goroutine scheduling — the
// determinism argument of concurrent explorations over one cache leans
// on this (see DESIGN.md).
type Cache struct {
	env         *types.Env
	witnessOnly bool
	in          *types.Interner

	mu   sync.Mutex
	comp map[types.ID]*Component
	sync map[[2]types.ID][]CompStep
	// wit memoises Witnesses per input domain, keyed by its canonical
	// form: early input asks for the witnesses of every input it fires.
	wit map[string][]string
}

// NewCache returns an empty cache for semantics over env with the given
// WitnessOnly mode.
func NewCache(env *types.Env, witnessOnly bool) *Cache {
	return &Cache{
		env:         env,
		witnessOnly: witnessOnly,
		in:          types.NewInterner(),
		comp:        map[types.ID]*Component{},
		sync:        map[[2]types.ID][]CompStep{},
		wit:         map[string][]string{},
	}
}

// lookup reads key from memo m under the cache lock.
func lookup[K comparable, V any](c *Cache, m map[K]V, key K) (V, bool) {
	c.mu.Lock()
	v, ok := m[key]
	c.mu.Unlock()
	return v, ok
}

// store publishes v under key in memo m unless an entry is already
// there, and returns the published entry: first write wins.
func store[K comparable, V any](c *Cache, m map[K]V, key K, v V) V {
	c.mu.Lock()
	if prev, ok := m[key]; ok {
		v = prev
	} else {
		m[key] = v
	}
	c.mu.Unlock()
	return v
}

// Interner exposes the cache's type interner, which callers (lts.Explore)
// use for state identity.
func (c *Cache) Interner() *types.Interner { return c.in }

// Memos returns the total number of memo entries held by the cache — the
// component and synchronisation memos plus the interned-type table — the
// size measure long-lived owners (the public package's Workspace) budget
// their eviction policy against. The witness memo, one entry per input
// domain of Γ's processes, is not counted.
func (c *Cache) Memos() int {
	c.mu.Lock()
	n := len(c.comp) + len(c.sync)
	c.mu.Unlock()
	return n + c.in.Len()
}

// Env returns the environment the cache was built for.
func (c *Cache) Env() *types.Env { return c.env }

// Witnesses returns the variables x ∈ dom(Γ) with Γ ⊢ x ⩽ dom, in
// insertion order (types.Env.Witnesses), memoised per domain.
func (c *Cache) Witnesses(dom types.Type) []string {
	key := types.Canon(dom)
	if ws, ok := lookup(c, c.wit, key); ok {
		return ws
	}
	return store(c, c.wit, key, c.env.Witnesses(dom))
}

// WitnessOnly reports whether the cache was built for witness-only
// early input (see Semantics.WitnessOnly). Symmetry detection
// (lts.DetectSymmetry) requires it: its confinement argument relies on
// environment-variable input instances subsuming the anonymous one.
func (c *Cache) WitnessOnly() bool { return c.witnessOnly }

// compatible reports whether the cache may serve entries for s: same
// environment and early-input mode.
func (c *Cache) compatible(s *Semantics) bool {
	return c != nil && c.env == s.Env && c.witnessOnly == s.WitnessOnly
}

// HasCompatibleCache reports whether s carries a cache built for its own
// environment and early-input mode (and may therefore serve its entries).
func (s *Semantics) HasCompatibleCache() bool { return s.Cache.compatible(s) }

// LabelKey is a compact identity for a transition label: two labels have
// equal LabelKeys (from the same Cache) iff their Key() strings are
// equal. Building one costs a few small type interns instead of
// rendering canonical strings.
type LabelKey struct {
	Kind    uint8
	A, B, C types.ID
}

const (
	labelTau   = 1
	labelOut   = 2
	labelIn    = 3
	labelComm  = 4
	labelDone  = 5
	labelStuck = 6
)

// CompStep is one transition viewed at the component level: the label,
// its compact identity, and the hash-consed FlattenPar leaves of the
// successor of the participating component(s). State successors are
// multiset surgery — remove the acting components' IDs, add Next — so
// lts.Explore never builds or walks a successor type tree on the hot
// path. For a synchronisation step Next holds the replacements of both
// participants concatenated (the state is a multiset, so positions are
// irrelevant).
type CompStep struct {
	Label Label
	Key   LabelKey
	Next  []types.ID
}

// Component is the memo entry of one component (Semantics.Component):
// its raw steps and the port summary derived from them. Entries are
// immutable once published.
type Component struct {
	ID    types.ID
	Steps []CompStep
	Ports Ports
}

// Ports summarises the subjects a component can output and input on, so
// that a pair of components that can never synchronise is rejected
// without a SyncSteps lookup (MaySync). A subject is *exact* when it is
// a variable whose Γ-bound unfolds to ci[·], co[·] or cio[·]; exact
// subjects are kept as interned IDs. Every other subject — a
// non-variable type, a variable bound to a variable, to a union or to ⊤,
// or a variable absent from Γ — may meet subjects other than itself
// through subtyping, so it only sets the direction's wildcard flag.
//
// Why exact subjects need only be compared by ID: take distinct
// variables x and y with channel bounds. Γ ⊢ x ⩽ y reduces by [⩽-x] to
// Γ(x) ⩽ y, and no rule of Fig. 4 relates a channel type to a variable,
// so it fails; symmetrically y ⩽ x fails. Γ ⊢ x ▷◁ y
// (types.MightInteract) then returns false, because once mutual
// subtyping fails it rejects every variable subject. So match, which
// requires ▷◁, fails for an output on x and an input on y, and a pair
// can synchronise only when an output and an input subject are the
// same interned ID (the interner gives one variable one ID) or one of
// them is a wildcard.
type Ports struct {
	HasOut, HasIn   bool
	OutWild, InWild bool
	// Outs and Ins are the exact output and input subjects, ascending
	// and without duplicates.
	Outs, Ins []types.ID
}

// MaySync reports whether an output of a component with ports out may
// meet an input of a component with ports in. It is sound: whenever
// SyncSteps of the two components is non-empty, MaySync holds.
func MaySync(out, in *Ports) bool {
	if !out.HasOut || !in.HasIn {
		return false
	}
	if out.OutWild || in.InWild {
		return true
	}
	for _, id := range out.Outs {
		if _, ok := slices.BinarySearch(in.Ins, id); ok {
			return true
		}
	}
	return false
}

// portsOf computes the port summary of a component's steps.
func (s *Semantics) portsOf(steps []CompStep) Ports {
	var p Ports
	for _, st := range steps {
		switch l := st.Label.(type) {
		case Output:
			p.HasOut = true
			if s.exactSubject(l.Subject) {
				p.Outs = insertID(p.Outs, st.Key.A)
			} else {
				p.OutWild = true
			}
		case Input:
			p.HasIn = true
			if s.exactSubject(l.Subject) {
				p.Ins = insertID(p.Ins, st.Key.A)
			} else {
				p.InWild = true
			}
		}
	}
	return p
}

// exactSubject reports whether sub is a variable whose Γ-bound unfolds
// to a channel type (see Ports). It is not types.ResolveChan, which
// follows a bound that is itself a variable: such a subject meets the
// variable it is bound to, so it must stay a wildcard.
func (s *Semantics) exactSubject(sub types.Type) bool {
	v, ok := sub.(types.Var)
	if !ok {
		return false
	}
	bound, ok := s.Env.Lookup(v.Name)
	if !ok {
		return false
	}
	switch types.UnfoldAll(bound).(type) {
	case types.ChanI, types.ChanO, types.ChanIO:
		return true
	}
	return false
}

// insertID adds id to the ascending slice ids unless already present.
func insertID(ids []types.ID, id types.ID) []types.ID {
	if k, found := slices.BinarySearch(ids, id); !found {
		ids = slices.Insert(ids, k, id)
	}
	return ids
}

// Component returns the memo entry of the single component with
// interned id cid: its raw (un-Y-limited) transitions and their port
// summary, memoised in the semantics' cache. The component is one
// FlattenPar leaf of a state; its steps are the interleaving moves the
// state inherits from it (Fig. 6 lifted through the parallel context).
//
// Unlike Transitions, the component API cannot fall back to uncached
// computation — cid is only meaningful relative to the cache's interner
// — so a missing or mismatched cache is a caller bug and panics
// (lts.Explore always attaches a compatible one).
func (s *Semantics) Component(cid types.ID) *Component {
	c := s.mustCache()
	if cs, ok := lookup(c, c.comp, cid); ok {
		return cs
	}
	saved := s.depthHit
	s.depthHit = false
	// Depth 1: the component sits inside the state's parallel context,
	// mirroring parSteps' raw(c, depth+1). Computing from the
	// representative makes the entry a pure function of cid.
	steps := s.raw(c.in.TypeOf(cid), 1)
	cs := &Component{ID: cid, Steps: make([]CompStep, len(steps))}
	for i, st := range steps {
		cs.Steps[i] = CompStep{Label: st.Label, Key: c.LabelKeyOf(st.Label), Next: c.internLeaves(st.Next)}
	}
	cs.Ports = s.portsOf(cs.Steps)
	if !s.depthHit {
		cs = store(c, c.comp, cid, cs) // first-write-wins: adopt the winner
	}
	s.depthHit = s.depthHit || saved
	return cs
}

// ComponentSteps returns the raw transitions of the component cid (see
// Component).
func (s *Semantics) ComponentSteps(cid types.ID) []CompStep {
	return s.Component(cid).Steps
}

// SyncSteps returns the synchronisations [T→iox]/[T→io] between an
// output of component ci and an input of component cj, memoised per
// ordered component pair. Next holds the flattened successors of both
// components. Like ComponentSteps, it requires a compatible cache.
func (s *Semantics) SyncSteps(ci, cj types.ID) []CompStep {
	key := [2]types.ID{ci, cj}
	c := s.mustCache()
	if ss, ok := lookup(c, c.sync, key); ok {
		return ss
	}
	saved := s.depthHit
	s.depthHit = false
	outs := s.ComponentSteps(ci)
	ins := s.ComponentSteps(cj)
	ss := []CompStep{}
	for _, so := range outs {
		out, ok := so.Label.(Output)
		if !ok {
			continue
		}
		for _, si := range ins {
			in, ok := si.Label.(Input)
			if !ok {
				continue
			}
			if !s.match(out, in) {
				continue
			}
			next := make([]types.ID, 0, len(so.Next)+len(si.Next))
			next = append(next, so.Next...)
			next = append(next, si.Next...)
			lab := Comm{Sender: out.Subject, Receiver: in.Subject, Payload: out.Payload}
			ss = append(ss, CompStep{Label: lab, Key: c.LabelKeyOf(lab), Next: next})
		}
	}
	if !s.depthHit {
		ss = store(c, c.sync, key, ss) // first-write-wins: adopt the winner
	}
	s.depthHit = s.depthHit || saved
	return ss
}

// internLeaves interns the FlattenPar leaves of t.
func (c *Cache) internLeaves(t types.Type) []types.ID {
	leaves := types.FlattenPar(t)
	ids := make([]types.ID, len(leaves))
	for i, l := range leaves {
		ids[i] = c.in.Intern(l)
	}
	return ids
}

// InternLeaves interns the FlattenPar leaves of t: the component
// representation lts.Explore seeds its root state with. It requires a
// compatible cache (see ComponentSteps).
func (s *Semantics) InternLeaves(t types.Type) []types.ID {
	return s.mustCache().internLeaves(t)
}

// mustCache returns the semantics' cache, panicking with a diagnostic if
// it is absent or was built for a different Env/WitnessOnly pair —
// serving such entries would silently compute transitions under the
// wrong environment.
func (s *Semantics) mustCache() *Cache {
	if !s.Cache.compatible(s) {
		panic("typelts: component-step API requires a Cache built with NewCache(sem.Env, sem.WitnessOnly)")
	}
	return s.Cache
}

// KeepLabel applies the Y-limitation filter of Def. 4.9 to a single
// label (true when no limitation is configured).
func (s *Semantics) KeepLabel(l Label) bool {
	if s.Observable == nil {
		return true
	}
	return s.keep(l)
}

// LabelKeyOf computes the compact identity of l.
func (c *Cache) LabelKeyOf(l Label) LabelKey {
	switch l := l.(type) {
	case TauChoice:
		return LabelKey{Kind: labelTau}
	case Done:
		return LabelKey{Kind: labelDone}
	case Stuck:
		return LabelKey{Kind: labelStuck}
	case Output:
		return LabelKey{Kind: labelOut, A: c.in.Intern(l.Subject), B: c.in.Intern(l.Payload)}
	case Input:
		return LabelKey{Kind: labelIn, A: c.in.Intern(l.Subject), B: c.in.Intern(l.Payload)}
	case Comm:
		return LabelKey{Kind: labelComm, A: c.in.Intern(l.Sender), B: c.in.Intern(l.Receiver), C: c.in.Intern(l.Payload)}
	default:
		// A silent zero key would collapse all unknown label kinds into
		// one alphabet entry and corrupt verdicts; fail loudly instead.
		panic(fmt.Sprintf("typelts: LabelKeyOf: unknown label implementation %T", l))
	}
}
