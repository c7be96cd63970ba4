package lts

// This file implements exploration-time symmetry reduction: instead of
// materialising every reachable state, the builder canonicalises each
// successor multiset to a representative of its orbit under a group of
// channel permutations, so whole families of symmetric interleavings
// collapse *during* BFS — before they cost states, edges or cache work.
//
// The group is detected statically (DetectSymmetry) and described by
// generators, never materialised. Environment channels are partitioned
// into *bundles* — channels co-mentioned by a root component, closed
// under union-find — and *classes* of interchangeable bundles are
// recognised: bundles with identical profiles (channel binding types
// plus the canonical shapes of their resident root components, both up
// to a positional renaming of the bundle's own channels) may be swapped
// wholesale, contributing the full symmetric group of the class.
//
// The group G is the direct product of these symmetric groups (they move
// disjoint bundles), represented by permutation vectors: one slot per
// class bundle holding its image bundle. Composition is functional.
//
// Soundness rests on a confinement invariant: in a closed, witness-only
// exploration that passes the static gate, every reachable component
// mentions channels of at most one bundle, and every label is confined
// to the bundle of its subject — distinct environment channel variables
// never interact ([⩽-x] only unfolds the left variable, so two
// different channel variables are never mutually subtypes), and a
// synchronisation's payload variable is free in the sender, hence in
// the sender's (= the subject's) bundle. Renaming along π therefore
// maps reachable states to reachable states, edges to edges, and — with
// the property's channels pinned (never permuted) — labels to labels of
// the same observation class. The canonicaliser additionally falls back
// to the identity on any state whose components it cannot place, which
// only loses reduction, never soundness: the canonical successor is
// always *a* member of the orbit, reached by the recorded permutation.
//
// Every edge records the permutation that carried its raw successor
// onto the canonical representative (LTS.EdgePerm); internal/verify
// composes these along a counterexample lasso to rebuild a concrete
// run, and re-validates it with the replay oracle. Canonicalisation
// runs on the registration side of both engines (Explore and
// incremental expansion): abstract-shape ranks, permutation table
// indices and canonical states are all assigned in registration order,
// never by interner ID value, so the symmetric LTS does not depend on
// how concurrent explorations over a shared cache interleave.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"effpi/internal/typelts"
	"effpi/internal/types"
)

// Symmetry is a channel-permutation group detected by DetectSymmetry,
// plus the memo tables the canonicaliser needs. A Symmetry is built for
// one (cache, environment, initial type, pinned set) and must only be
// used by one exploration at a time (the exploration memos are not
// locked). The
// permutation-algebra entry points used by witness lifting — Compose,
// Invert, PermuteComps, PermuteLabel — take mu, because the verifier
// lifts counterexamples of independent properties concurrently after the
// shared exploration has finished.
type Symmetry struct {
	env *types.Env
	in  *types.Interner
	mu  sync.Mutex

	// bundles[b] lists class bundle b's channels in first-mention order.
	// ph[i] is the placeholder variable standing for position i while a
	// component is abstracted away from its bundle ("\x00"-prefixed, so it
	// can never collide with a source binder or environment name).
	bundles [][]string
	ph      []string
	// chanBundle maps a permutable channel to its slot.
	chanBundle map[string]int32
	// classes lists each class's member bundles in first-mention order.
	classes [][]int32

	// Exploration memos: residence of a component ID, reification of an
	// abstract shape onto a bundle, dense first-encounter ranks of
	// abstract shapes, and the interned permutation table (index 0 is
	// the identity).
	res       map[types.ID]residence
	reifyMemo map[reifyKey]types.ID
	abstRank  map[types.ID]int32
	permIdx   map[string]int32
	perms     [][]int32
	chanMaps  []map[string]string

	// Scratch buffers reused across canonicalise calls.
	contents [][]types.ID
	fixed    []types.ID
	ordBuf   []int32
	permBuf  []int32
}

// residence places one component: the permutable bundle whose channels
// it mentions (resFixed if none, resSpanning if more than one — the
// canonicaliser then falls back to the identity for the whole state),
// and its abstract shape (the component with the bundle's channels
// renamed to positional placeholders).
type residence struct {
	bundle int32
	abst   types.ID
}

const (
	resFixed    = int32(-1)
	resSpanning = int32(-2)
)

type reifyKey struct {
	abst   types.ID
	bundle int32
}

// DetectSymmetry analyses a closed system and returns its channel
// permutation group — the direct product of the symmetric groups of
// interchangeable-bundle classes — or nil when no usable symmetry
// exists. pinned lists environment channels that must never be permuted
// — the verifier pins every channel its property observes, which is
// what keeps the orbit LTS property-equivalent to the concrete one. A
// pinned channel freezes its whole bundle. Components that share
// channels around a ring (the Dining forks) fuse into one bundle with
// nothing to swap it with, so a ring yields no group.
//
// The detection is all-or-nothing per bundle and conservative overall:
// any construction the confinement argument does not cover (non-variable
// channel subjects, input binders used as channels without an
// environment witness, channels mentioned by binding types, channel
// names shadowed by binders) either disables symmetry entirely or
// freezes the offending bundle. The result is only sound for
// explorations that are closed (no observable set) and witness-only —
// the gate the verifier always satisfies and prepBuilder re-checks.
func DetectSymmetry(cache *typelts.Cache, init types.Type, pinned []string) *Symmetry {
	if cache == nil || !cache.WitnessOnly() {
		return nil
	}
	env := cache.Env()
	if env == nil {
		return nil
	}
	roots := types.FlattenPar(init)
	if len(roots) < 2 {
		return nil
	}
	isChan := map[string]bool{}
	for _, n := range env.Names() {
		isChan[n] = true
	}

	// Static gate: every channel position in the system (roots and
	// environment types) must hold variables, and every input binder
	// used in channel position must have an environment witness — then
	// witness-only early input only ever substitutes environment
	// variables into channel positions, and the confinement invariant
	// holds (see the file comment).
	scope := append(append([]types.Type{}, roots...), envTypes(env)...)
	for _, t := range scope {
		if !subjectsSafe(env, t) {
			return nil
		}
	}

	// Bundles: union-find over channels co-mentioned by a root.
	chanIdx := map[string]int{}
	var mention []string
	var parent []int
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	rootChans := make([][]int, len(roots))
	for i, r := range roots {
		var local []int
		seenLocal := map[int]bool{}
		walkFreeVarOccurrences(r, nil, func(n string) {
			if !isChan[n] {
				return
			}
			ci, ok := chanIdx[n]
			if !ok {
				ci = len(mention)
				chanIdx[n] = ci
				mention = append(mention, n)
				parent = append(parent, ci)
			}
			if !seenLocal[ci] {
				seenLocal[ci] = true
				local = append(local, ci)
			}
		})
		rootChans[i] = local
		for k := 1; k < len(local); k++ {
			ra, rb := find(local[0]), find(local[k])
			if ra != rb {
				parent[ra] = rb
			}
		}
	}
	if len(mention) < 2 {
		return nil
	}

	// Freeze channels the group must not move: the pinned set, channels
	// whose binding types refer to other channels (renaming would have
	// to rewrite the environment), channels shadowed by a binder name
	// anywhere in scope (renaming onto them could capture), and
	// generated names ("%" is the FreshName marker).
	frozen := make([]bool, len(mention))
	freeze := func(n string) {
		if ci, ok := chanIdx[n]; ok {
			frozen[ci] = true
		}
	}
	for _, p := range pinned {
		freeze(p)
	}
	binders := map[string]bool{}
	for _, t := range scope {
		collectBinders(t, binders)
	}
	for ci, n := range mention {
		if binders[n] || strings.Contains(n, "%") {
			frozen[ci] = true
		}
	}
	for _, n := range env.Names() {
		bind, _ := env.Lookup(n)
		for fv := range types.FreeVars(bind) {
			if isChan[fv] {
				freeze(fv)
				freeze(n)
			}
		}
	}

	// Group channels into bundles (dense ids in first-mention order; a
	// frozen channel freezes its whole bundle).
	bundleOf := map[int]int{}
	var bundleChans [][]int
	var bundleFrozen []bool
	for ci := range mention {
		r := find(ci)
		bi, ok := bundleOf[r]
		if !ok {
			bi = len(bundleChans)
			bundleOf[r] = bi
			bundleChans = append(bundleChans, nil)
			bundleFrozen = append(bundleFrozen, false)
		}
		bundleChans[bi] = append(bundleChans[bi], ci)
		if frozen[ci] {
			bundleFrozen[bi] = true
		}
	}
	residents := make([][]int, len(bundleChans))
	for i := range roots {
		if len(rootChans[i]) == 0 {
			continue
		}
		bi := bundleOf[find(rootChans[i][0])]
		residents[bi] = append(residents[bi], i)
	}

	// Profile each unfrozen bundle: the binding types of its channels
	// (positional) plus the canonical shapes of its resident roots with
	// the bundle's channels renamed to positional placeholders. Equal
	// profiles ⇒ interchangeable bundles, with the positional renaming
	// as the witness bijection.
	maxW := 0
	for bi, bc := range bundleChans {
		if !bundleFrozen[bi] && len(bc) > maxW {
			maxW = len(bc)
		}
	}
	ph := make([]string, maxW)
	for i := range ph {
		ph[i] = fmt.Sprintf("\x00sym%d", i)
	}
	profiles := map[string][]int{}
	var profileOrder []string
	for bi, bc := range bundleChans {
		if bundleFrozen[bi] {
			continue
		}
		var sb strings.Builder
		for _, ci := range bc {
			bind, _ := env.Lookup(mention[ci])
			sb.WriteString(types.Canon(bind))
			sb.WriteByte('\n')
		}
		var shapes []string
		for _, ri := range residents[bi] {
			t := roots[ri]
			for pos, ci := range bc {
				t = types.Subst(t, mention[ci], types.Var{Name: ph[pos]})
			}
			shapes = append(shapes, types.Canon(t))
		}
		sort.Strings(shapes)
		sb.WriteByte('\x01')
		sb.WriteString(strings.Join(shapes, "\x01"))
		p := sb.String()
		if _, ok := profiles[p]; !ok {
			profileOrder = append(profileOrder, p)
		}
		profiles[p] = append(profiles[p], bi)
	}

	s := &Symmetry{
		env:        env,
		in:         cache.Interner(),
		ph:         ph,
		chanBundle: map[string]int32{},
		res:        map[types.ID]residence{},
		reifyMemo:  map[reifyKey]types.ID{},
		abstRank:   map[types.ID]int32{},
		permIdx:    map[string]int32{},
	}
	for _, p := range profileOrder {
		members := profiles[p]
		if len(members) < 2 {
			continue
		}
		var cls []int32
		for _, bi := range members {
			nb := int32(len(s.bundles))
			names := make([]string, len(bundleChans[bi]))
			for pos, ci := range bundleChans[bi] {
				names[pos] = mention[ci]
				s.chanBundle[mention[ci]] = nb
			}
			s.bundles = append(s.bundles, names)
			cls = append(cls, nb)
		}
		s.classes = append(s.classes, cls)
	}
	if len(s.classes) == 0 {
		return nil
	}
	identity := make([]int32, len(s.bundles))
	for i := range identity {
		identity[i] = int32(i)
	}
	s.perms = [][]int32{identity}
	s.permIdx[packPerm(identity)] = 0
	s.chanMaps = []map[string]string{nil}
	s.contents = make([][]types.ID, len(s.bundles))
	s.permBuf = make([]int32, len(s.bundles))
	return s
}

// envTypes lists every environment binding type, in Names order.
func envTypes(env *types.Env) []types.Type {
	var out []types.Type
	for _, n := range env.Names() {
		t, _ := env.Lookup(n)
		out = append(out, t)
	}
	return out
}

// NumBundles reports the number of permutable bundles.
func (s *Symmetry) NumBundles() int { return len(s.bundles) }

// NumClasses reports the number of interchangeability classes.
func (s *Symmetry) NumClasses() int { return len(s.classes) }

// SameInterner reports whether the group was detected over in — the
// precondition for applying its permutations to component IDs of another
// exploration (witness lifting walks a fresh concrete exploration, which
// must share the interner).
func (s *Symmetry) SameInterner(in *types.Interner) bool { return s.in == in }

// Compose interns the composition p∘q (apply q, then p):
// (p∘q)[b] = p[q[b]].
func (s *Symmetry) Compose(p, q int32) int32 {
	if p == 0 {
		return q
	}
	if q == 0 {
		return p
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	pp, qq := s.perms[p], s.perms[q]
	out := s.permBuf
	for b := range out {
		out[b] = pp[qq[b]]
	}
	return s.internPerm(out)
}

// Invert interns the inverse permutation of p.
func (s *Symmetry) Invert(p int32) int32 {
	if p == 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	pp := s.perms[p]
	out := s.permBuf
	for b := range out {
		out[pp[b]] = int32(b)
	}
	return s.internPerm(out)
}

// PermuteComps applies permutation p to a component multiset: each
// component resident on bundle b is renamed onto bundle p[b]. It
// reports failure when a component cannot be placed (which a gated
// exploration never produces on canonical states).
func (s *Symmetry) PermuteComps(p int32, comps []types.ID) ([]types.ID, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]types.ID, 0, len(comps))
	perm := s.perms[p]
	for _, id := range comps {
		r := s.residence(id)
		switch {
		case r.bundle == resSpanning:
			return nil, false
		case r.bundle == resFixed:
			out = append(out, id)
		case perm[r.bundle] == r.bundle:
			out = append(out, id)
		default:
			out = append(out, s.reify(r.abst, perm[r.bundle]))
		}
	}
	return out, true
}

// PermuteLabel applies permutation p to a transition label by renaming
// the channels of every moved bundle inside its type components.
// Payload-free labels (τ-choice, ✔, ⊠) are invariant.
func (s *Symmetry) PermuteLabel(p int32, lab typelts.Label) typelts.Label {
	if p == 0 {
		return lab
	}
	s.mu.Lock()
	m := s.chanMap(p)
	s.mu.Unlock()
	if len(m) == 0 {
		return lab
	}
	switch l := lab.(type) {
	case typelts.Output:
		return typelts.Output{Subject: renameFree(l.Subject, m), Payload: renameFree(l.Payload, m)}
	case typelts.Input:
		return typelts.Input{Subject: renameFree(l.Subject, m), Payload: renameFree(l.Payload, m)}
	case typelts.Comm:
		return typelts.Comm{
			Sender:   renameFree(l.Sender, m),
			Receiver: renameFree(l.Receiver, m),
			Payload:  renameFree(l.Payload, m),
		}
	default:
		return lab
	}
}

// chanMap materialises (and memoises) the channel renaming of a
// permutation: for every bundle b with p[b] ≠ b, b's i-th channel maps
// to p[b]'s i-th channel.
func (s *Symmetry) chanMap(p int32) map[string]string {
	for int(p) >= len(s.chanMaps) {
		s.chanMaps = append(s.chanMaps, nil)
	}
	if m := s.chanMaps[p]; m != nil {
		return m
	}
	m := map[string]string{}
	for b, dst := range s.perms[p] {
		if int32(b) == dst {
			continue
		}
		for pos, ch := range s.bundles[b] {
			m[ch] = s.bundles[dst][pos]
		}
	}
	s.chanMaps[p] = m
	return m
}

// residence places one component and computes its abstract shape (memoised).
func (s *Symmetry) residence(id types.ID) residence {
	if r, ok := s.res[id]; ok {
		return r
	}
	t := s.in.TypeOf(id)
	fv := types.FreeVars(t)
	b := resFixed
	for name := range fv {
		bi, ok := s.chanBundle[name]
		if !ok {
			continue
		}
		if b == resFixed {
			b = bi
		} else if b != bi {
			b = resSpanning
			break
		}
	}
	r := residence{bundle: b, abst: id}
	if b >= 0 {
		t2 := t
		for pos, ch := range s.bundles[b] {
			if !fv[ch] {
				continue
			}
			t2 = s.in.Subst(t2, ch, types.Var{Name: s.ph[pos]})
		}
		r.abst = s.in.Intern(t2)
	}
	s.res[id] = r
	return r
}

// reify renames an abstract shape onto a bundle's channels, position p
// landing on the bundle's p-th channel (memoised).
func (s *Symmetry) reify(abst types.ID, bundle int32) types.ID {
	key := reifyKey{abst: abst, bundle: bundle}
	if id, ok := s.reifyMemo[key]; ok {
		return id
	}
	t := s.in.TypeOf(abst)
	for pos, ch := range s.bundles[bundle] {
		t = s.in.Subst(t, s.ph[pos], types.Var{Name: ch})
	}
	id := s.in.Intern(t)
	s.reifyMemo[key] = id
	return id
}

// rankOfAbst assigns dense first-encounter ranks to abstract shapes —
// the comparison key of the canonical order. Ranks are assigned on the
// registration side in deterministic encounter order, mirroring
// builder.rankOf for component IDs.
func (s *Symmetry) rankOfAbst(id types.ID) int32 {
	if r, ok := s.abstRank[id]; ok {
		return r
	}
	r := int32(len(s.abstRank))
	s.abstRank[id] = r
	return r
}

// fillContents distributes a state's components over the permutable
// bundles (abstract shapes, sorted by rank) and the fixed remainder. It
// reports false when any component spans bundles.
func (s *Symmetry) fillContents(comps []types.ID) bool {
	for i := range s.contents {
		s.contents[i] = s.contents[i][:0]
	}
	s.fixed = s.fixed[:0]
	for _, id := range comps {
		r := s.residence(id)
		switch r.bundle {
		case resSpanning:
			return false
		case resFixed:
			s.fixed = append(s.fixed, id)
		default:
			s.rankOfAbst(r.abst)
			s.contents[r.bundle] = append(s.contents[r.bundle], r.abst)
		}
	}
	for bi := range s.contents {
		c := s.contents[bi]
		for i := 1; i < len(c); i++ {
			for j := i; j > 0 && s.abstRank[c[j]] < s.abstRank[c[j-1]]; j-- {
				c[j], c[j-1] = c[j-1], c[j]
			}
		}
	}
	return true
}

// lessContents orders two bundles' content vectors lexicographically by
// abstract rank (ties broken by length).
func (s *Symmetry) lessContents(a, b int32) bool {
	ca, cb := s.contents[a], s.contents[b]
	n := len(ca)
	if len(cb) < n {
		n = len(cb)
	}
	for i := 0; i < n; i++ {
		ra, rb := s.abstRank[ca[i]], s.abstRank[cb[i]]
		if ra != rb {
			return ra < rb
		}
	}
	return len(ca) < len(cb)
}

func (s *Symmetry) equalContents(a, b int32) bool {
	ca, cb := s.contents[a], s.contents[b]
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

// canonicalise maps a component multiset to its orbit representative.
// Within each class, bundle contents are stably sorted into canonical
// order and reified back onto the class's bundles; the classes move
// disjoint bundles, so the pass first decides the full permutation,
// then builds the representative. It returns the canonical multiset
// (built in buf's storage when it differs from the input), the interned
// permutation π with canonical = π(input) — (input, 0) when the state
// is already canonical or cannot be placed — and |orbit(input)|, the
// number of distinct concrete states the canonical state represents:
// the product over classes of the multinomial counting the distinct
// assignments of the class's content multisets to its bundles (the
// equal runs of the sorted order). It saturates at MaxInt64, and is 1
// for a state that cannot be placed.
func (s *Symmetry) canonicalise(comps, buf []types.ID) ([]types.ID, int32, int64) {
	if !s.fillContents(comps) {
		return comps, 0, 1
	}
	perm := s.permBuf
	identity := true
	size := int64(1)
	ord := s.ordBuf[:0]
	for _, cls := range s.classes {
		k := len(cls)
		base := len(ord)
		for j := 0; j < k; j++ {
			ord = append(ord, int32(j))
		}
		o := ord[base:]
		for i := 1; i < k; i++ {
			for j := i; j > 0 && s.lessContents(cls[o[j]], cls[o[j-1]]); j-- {
				o[j], o[j-1] = o[j-1], o[j]
			}
		}
		remaining := k
		for lo := 0; lo < k; {
			hi := lo + 1
			for hi < k && s.equalContents(cls[o[lo]], cls[o[hi]]) {
				hi++
			}
			size = satMul(size, binomial(remaining, hi-lo))
			remaining -= hi - lo
			lo = hi
		}
		for j := 0; j < k; j++ {
			if o[j] != int32(j) {
				identity = false
			}
			perm[cls[o[j]]] = cls[j]
		}
	}
	s.ordBuf = ord
	if identity {
		return comps, 0, size
	}
	out := append(buf[:0], s.fixed...)
	base := 0
	for _, cls := range s.classes {
		o := ord[base : base+len(cls)]
		base += len(cls)
		for j, dst := range cls {
			for _, abst := range s.contents[cls[o[j]]] {
				out = append(out, s.reify(abst, dst))
			}
		}
	}
	return out, s.internPerm(perm), size
}

// internPerm interns a permutation vector, returning its dense table
// index (assigned in first-encounter order on the registration side,
// hence deterministic).
func (s *Symmetry) internPerm(p []int32) int32 {
	key := packPerm(p)
	if i, ok := s.permIdx[key]; ok {
		return i
	}
	i := int32(len(s.perms))
	s.perms = append(s.perms, append([]int32{}, p...))
	s.permIdx[key] = i
	return i
}

func packPerm(p []int32) string {
	buf := make([]byte, 0, 4*len(p))
	for _, v := range p {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(buf)
}

// binomial computes C(n, k) exactly (the running product is divisible
// at every step), saturating at MaxInt64.
func binomial(n, k int) int64 {
	if k > n-k {
		k = n - k
	}
	b := int64(1)
	for i := 1; i <= k; i++ {
		f := int64(n - k + i)
		if b > math.MaxInt64/f {
			return math.MaxInt64
		}
		b = b * f / int64(i)
	}
	return b
}

func satMul(a, b int64) int64 {
	if b != 0 && a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// subjectsSafe checks the static channel discipline of one type: every
// In/Out channel position holds variables (possibly a union of them),
// and every input binder that is itself used in channel position has an
// environment witness for its domain — so witness-only early input only
// ever substitutes environment variables into channel positions.
func subjectsSafe(env *types.Env, t types.Type) bool {
	ok := true
	checkSubject := func(sub types.Type) {
		for _, leaf := range types.FlattenUnion(sub) {
			if _, isVar := leaf.(types.Var); !isVar {
				ok = false
			}
		}
	}
	var walk func(types.Type)
	walk = func(t types.Type) {
		if !ok {
			return
		}
		switch t := t.(type) {
		case types.Union:
			walk(t.L)
			walk(t.R)
		case types.Pi:
			walk(t.Dom)
			walk(t.Cod)
		case types.Rec:
			walk(t.Body)
		case types.ChanIO:
			walk(t.Elem)
		case types.ChanI:
			walk(t.Elem)
		case types.ChanO:
			walk(t.Elem)
		case types.Par:
			walk(t.L)
			walk(t.R)
		case types.Out:
			checkSubject(t.Ch)
			walk(t.Payload)
			walk(t.Cont)
		case types.In:
			checkSubject(t.Ch)
			pi, isPi := t.Cont.(types.Pi)
			if !isPi {
				// [T→i] anchors its binder analysis on the syntactic Π.
				ok = false
				return
			}
			walk(pi.Dom)
			if pi.Var != "" && occursInChanPos(pi.Cod, pi.Var) && !hasEnvWitness(env, pi.Dom) {
				ok = false
				return
			}
			walk(pi.Cod)
		}
	}
	walk(t)
	return ok
}

// occursInChanPos reports whether the free variable v occurs in some
// In/Out channel position of t.
func occursInChanPos(t types.Type, v string) bool {
	switch t := t.(type) {
	case types.Union:
		return occursInChanPos(t.L, v) || occursInChanPos(t.R, v)
	case types.Pi:
		if t.Var == v {
			return occursInChanPos(t.Dom, v)
		}
		return occursInChanPos(t.Dom, v) || occursInChanPos(t.Cod, v)
	case types.Rec:
		return occursInChanPos(t.Body, v)
	case types.ChanIO:
		return occursInChanPos(t.Elem, v)
	case types.ChanI:
		return occursInChanPos(t.Elem, v)
	case types.ChanO:
		return occursInChanPos(t.Elem, v)
	case types.Par:
		return occursInChanPos(t.L, v) || occursInChanPos(t.R, v)
	case types.Out:
		if subjectMentions(t.Ch, v) {
			return true
		}
		return occursInChanPos(t.Payload, v) || occursInChanPos(t.Cont, v)
	case types.In:
		if subjectMentions(t.Ch, v) {
			return true
		}
		return occursInChanPos(t.Cont, v)
	default:
		return false
	}
}

func subjectMentions(sub types.Type, v string) bool {
	for _, leaf := range types.FlattenUnion(sub) {
		if lv, ok := leaf.(types.Var); ok && lv.Name == v {
			return true
		}
	}
	return false
}

// hasEnvWitness reports whether some environment variable is a subtype
// of dom — the Thm. 4.10 footnote condition under which witness-only
// early input drops the anonymous instance.
func hasEnvWitness(env *types.Env, dom types.Type) bool {
	for _, n := range env.Names() {
		if types.Subtype(env, types.Var{Name: n}, dom) {
			return true
		}
	}
	return false
}

// collectBinders records every Π-binder name in t.
func collectBinders(t types.Type, out map[string]bool) {
	switch t := t.(type) {
	case types.Union:
		collectBinders(t.L, out)
		collectBinders(t.R, out)
	case types.Pi:
		if t.Var != "" {
			out[t.Var] = true
		}
		collectBinders(t.Dom, out)
		collectBinders(t.Cod, out)
	case types.Rec:
		collectBinders(t.Body, out)
	case types.ChanIO:
		collectBinders(t.Elem, out)
	case types.ChanI:
		collectBinders(t.Elem, out)
	case types.ChanO:
		collectBinders(t.Elem, out)
	case types.Out:
		collectBinders(t.Ch, out)
		collectBinders(t.Payload, out)
		collectBinders(t.Cont, out)
	case types.In:
		collectBinders(t.Ch, out)
		collectBinders(t.Cont, out)
	case types.Par:
		collectBinders(t.L, out)
		collectBinders(t.R, out)
	}
}

// walkFreeVarOccurrences visits every free Var occurrence of t in
// pre-order (deterministic first-mention order, unlike FreeVars' map).
func walkFreeVarOccurrences(t types.Type, bound []string, visit func(string)) {
	switch t := t.(type) {
	case types.Var:
		for _, b := range bound {
			if b == t.Name {
				return
			}
		}
		visit(t.Name)
	case types.Union:
		walkFreeVarOccurrences(t.L, bound, visit)
		walkFreeVarOccurrences(t.R, bound, visit)
	case types.Pi:
		walkFreeVarOccurrences(t.Dom, bound, visit)
		if t.Var != "" {
			bound = append(bound, t.Var)
		}
		walkFreeVarOccurrences(t.Cod, bound, visit)
	case types.Rec:
		walkFreeVarOccurrences(t.Body, bound, visit)
	case types.ChanIO:
		walkFreeVarOccurrences(t.Elem, bound, visit)
	case types.ChanI:
		walkFreeVarOccurrences(t.Elem, bound, visit)
	case types.ChanO:
		walkFreeVarOccurrences(t.Elem, bound, visit)
	case types.Out:
		walkFreeVarOccurrences(t.Ch, bound, visit)
		walkFreeVarOccurrences(t.Payload, bound, visit)
		walkFreeVarOccurrences(t.Cont, bound, visit)
	case types.In:
		walkFreeVarOccurrences(t.Ch, bound, visit)
		walkFreeVarOccurrences(t.Cont, bound, visit)
	case types.Par:
		walkFreeVarOccurrences(t.L, bound, visit)
		walkFreeVarOccurrences(t.R, bound, visit)
	}
}

// renameFree renames free variable occurrences of t along m. Capture is
// impossible by construction: DetectSymmetry freezes any bundle whose
// channels collide with a binder name, so neither sources nor targets
// are ever bound in t.
func renameFree(t types.Type, m map[string]string) types.Type {
	switch t := t.(type) {
	case types.Var:
		if to, ok := m[t.Name]; ok {
			return types.Var{Name: to}
		}
		return t
	case types.Union:
		return types.Union{L: renameFree(t.L, m), R: renameFree(t.R, m)}
	case types.Pi:
		return types.Pi{Var: t.Var, Dom: renameFree(t.Dom, m), Cod: renameFree(t.Cod, m)}
	case types.Rec:
		return types.Rec{Var: t.Var, Body: renameFree(t.Body, m)}
	case types.ChanIO:
		return types.ChanIO{Elem: renameFree(t.Elem, m)}
	case types.ChanI:
		return types.ChanI{Elem: renameFree(t.Elem, m)}
	case types.ChanO:
		return types.ChanO{Elem: renameFree(t.Elem, m)}
	case types.Out:
		return types.Out{Ch: renameFree(t.Ch, m), Payload: renameFree(t.Payload, m), Cont: renameFree(t.Cont, m)}
	case types.In:
		return types.In{Ch: renameFree(t.Ch, m), Cont: renameFree(t.Cont, m)}
	case types.Par:
		return types.Par{L: renameFree(t.L, m), R: renameFree(t.R, m)}
	default:
		return t
	}
}
