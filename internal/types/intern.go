package types

// This file implements hash-consing of types: an Interner maps every type
// to a small integer ID such that two types receive the same ID iff their
// canonical forms (Canon) are equal — i.e. iff they are equivalent under
// the AC fragment of the congruence ≡ of Def. 3.1 (union/parallel
// commutativity and associativity, p[T,nil] ≡ T, α-conversion of binders).
//
// The interner is the identity backbone of the verification hot path:
// component identity in lts.Explore (a state is a vector of component
// IDs), transition-label identity, and the memoisation keys of the
// cached type semantics (typelts.Cache) are all interned IDs, so the
// expensive canonical *string* of a type never needs to be built at
// all. Interning walks the type once and hashes structural
// node keys (tag + child IDs + positional binder names), which mirrors
// Canon's traversal exactly: Par components are flattened (nil dropped)
// and sorted, union leaves are flattened and sorted (a repeated leaf
// stays: T ∨ T is not T, since τ[∨] gives it a step T lacks), and
// binders are renamed positionally. Equality of IDs therefore coincides
// with equality of Canon strings (see intern_test.go, which checks the
// iff on every fixture of package systems).

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// ID is the hash-consed identity of a type: two types interned in the
// same Interner have equal IDs iff Canon renders them equally.
type ID int32

// Interner hash-conses types. It is safe for concurrent use.
type Interner struct {
	mu    sync.Mutex
	table map[string]ID
	reps  []Type // first representative interned at each ID

	// positional binder names π0, π1, ... / µ0, µ1, ..., grown on demand
	// so interning does not fmt.Sprintf per binder.
	piNames, muNames []string

	buf []byte // scratch for node keys
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{table: make(map[string]ID, 1024)}
}

// Intern returns the ID of t, assigning a fresh one if t's canonical form
// has not been seen before.
func (in *Interner) Intern(t Type) ID {
	in.mu.Lock()
	id := in.intern(t, nil, 0)
	in.mu.Unlock()
	return id
}

// TypeOf returns a representative type of id: the first type interned at
// that ID. It is ≡-equivalent to every other type interned at id.
func (in *Interner) TypeOf(id ID) Type {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.reps[id]
}

// InternPar interns the parallel composition of the already-interned
// components ids — a multiset: order is irrelevant, and ids is sorted in
// place. No type tree is walked or built unless the composition is new
// (its representative is then assembled from the components'
// representatives). lts.LTS.StateType builds a state's type this way,
// on demand, from the state's component vector.
//
// ids must be the interned IDs of FlattenPar leaves (non-Par, non-Nil
// types), which is the same invariant Intern itself establishes for Par
// children.
func (in *Interner) InternPar(ids []ID) ID {
	in.mu.Lock()
	defer in.mu.Unlock()
	sortIDs(ids)
	switch len(ids) {
	case 0:
		return in.leaf('0', Nil{})
	case 1:
		return ids[0]
	}
	key := append(in.buf[:0], tagPar)
	for _, id := range ids {
		key = appendID(key, id)
	}
	in.buf = key[:0]
	if id, ok := in.table[string(key)]; ok {
		return id
	}
	comps := make([]Type, len(ids))
	for i, c := range ids {
		comps[i] = in.reps[c]
	}
	id := ID(len(in.reps))
	in.table[string(key)] = id
	in.reps = append(in.reps, ParOf(comps...))
	return id
}

// Len returns the number of distinct types interned so far.
func (in *Interner) Len() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.reps)
}

// rnPair is one binder renaming; lookups scan backwards so inner binders
// shadow outer ones, like Canon's copied map.
type rnPair struct{ from, to string }

func lookupRn(rn []rnPair, name string) (string, bool) {
	for i := len(rn) - 1; i >= 0; i-- {
		if rn[i].from == name {
			return rn[i].to, true
		}
	}
	return "", false
}

func (in *Interner) piName(depth int) string {
	for len(in.piNames) <= depth {
		in.piNames = append(in.piNames, "π"+itoaSmall(len(in.piNames)))
	}
	return in.piNames[depth]
}

func (in *Interner) muName(depth int) string {
	for len(in.muNames) <= depth {
		in.muNames = append(in.muNames, "µ"+itoaSmall(len(in.muNames)))
	}
	return in.muNames[depth]
}

func itoaSmall(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Node key tags. Each tag is followed by the fields listed; IDs and the
// binder depth are fixed-width 32-bit values, names are NUL-terminated.
const (
	tagLeaf  = byte('L') // + canon leaf byte (B U Z S ⊤→T ⊥→F P 0)
	tagOcc   = byte('n') // + resolved occurrence string (π3 / µ1 / v!x / µ!t)
	tagUnion = byte('|') // + sorted child IDs
	tagPar   = byte('p') // + sorted child IDs
	tagThunk = byte('Q') // + dom ID + cod ID
	tagPi    = byte('>') // + depth + dom ID + cod ID
	tagRec   = byte('u') // + depth + body ID
	tagCIO   = byte('c') // + elem ID
	tagCI    = byte('i') // + elem ID
	tagCO    = byte('o') // + elem ID
	tagOut   = byte('!') // + ch ID + payload ID + cont ID
	tagIn    = byte('?') // + ch ID + cont ID
	tagOther = byte('#') // + Go type string (mirrors Canon's "?%T" fallback)
)

// intern walks t bottom-up: children are interned first, then the node's
// key is assembled in the scratch buffer and looked up. The traversal,
// renaming and flattening mirror canon() exactly; the caller holds mu.
func (in *Interner) intern(t Type, rn []rnPair, depth int) ID {
	switch t := t.(type) {
	case Bool:
		return in.leaf('B', t)
	case Unit:
		return in.leaf('U', t)
	case Int:
		return in.leaf('Z', t)
	case Str:
		return in.leaf('S', t)
	case Top:
		return in.leaf('T', t)
	case Bottom:
		return in.leaf('F', t)
	case Proc:
		return in.leaf('P', t)
	case Nil:
		return in.leaf('0', t)

	case Var:
		if r, ok := lookupRn(rn, t.Name); ok {
			return in.occ(r, t)
		}
		return in.occ2("v!", t.Name, t)
	case RecVar:
		if r, ok := lookupRn(rn, t.Name); ok {
			return in.occ(r, t)
		}
		return in.occ2("µ!", t.Name, t)

	case Union:
		leaves := FlattenUnion(t)
		ids := make([]ID, len(leaves))
		for i, l := range leaves {
			ids[i] = in.intern(l, rn, depth)
		}
		sortIDs(ids)
		key := append(in.buf[:0], tagUnion)
		for _, id := range ids {
			key = appendID(key, id)
		}
		return in.get(key, t)

	case Par:
		leaves := FlattenPar(t)
		if len(leaves) == 0 {
			return in.leaf('0', Nil{})
		}
		ids := make([]ID, len(leaves))
		for i, l := range leaves {
			ids[i] = in.intern(l, rn, depth)
		}
		if len(ids) == 1 {
			return ids[0]
		}
		sortIDs(ids)
		key := append(in.buf[:0], tagPar)
		for _, id := range ids {
			key = appendID(key, id)
		}
		return in.get(key, t)

	case Pi:
		if t.Var == "" {
			dom := in.intern(t.Dom, rn, depth)
			cod := in.intern(t.Cod, rn, depth)
			key := appendID(appendID(append(in.buf[:0], tagThunk), dom), cod)
			return in.get(key, t)
		}
		dom := in.intern(t.Dom, rn, depth)
		cod := in.intern(t.Cod, append(rn, rnPair{from: t.Var, to: in.piName(depth)}), depth+1)
		key := appendID(appendID(appendInt(append(in.buf[:0], tagPi), depth), dom), cod)
		return in.get(key, t)

	case Rec:
		body := in.intern(t.Body, append(rn, rnPair{from: t.Var, to: in.muName(depth)}), depth+1)
		key := appendID(appendInt(append(in.buf[:0], tagRec), depth), body)
		return in.get(key, t)

	case ChanIO:
		return in.unary(tagCIO, in.intern(t.Elem, rn, depth), t)
	case ChanI:
		return in.unary(tagCI, in.intern(t.Elem, rn, depth), t)
	case ChanO:
		return in.unary(tagCO, in.intern(t.Elem, rn, depth), t)

	case Out:
		ch := in.intern(t.Ch, rn, depth)
		pl := in.intern(t.Payload, rn, depth)
		ct := in.intern(t.Cont, rn, depth)
		key := appendID(appendID(appendID(append(in.buf[:0], tagOut), ch), pl), ct)
		return in.get(key, t)

	case In:
		ch := in.intern(t.Ch, rn, depth)
		ct := in.intern(t.Cont, rn, depth)
		key := appendID(appendID(append(in.buf[:0], tagIn), ch), ct)
		return in.get(key, t)

	default:
		// Mirror Canon's "?%T" fallback: unknown implementations are
		// identified by their Go type alone.
		key := append(in.buf[:0], tagOther)
		key = append(key, typeName(t)...)
		return in.get(key, t)
	}
}

func typeName(t Type) string {
	// Matches the identity granularity of Canon's "?%T" fallback: unknown
	// implementations are identified by their Go type alone.
	return fmt.Sprintf("%T", t)
}

func (in *Interner) leaf(c byte, rep Type) ID {
	key := append(in.buf[:0], tagLeaf, c)
	return in.get(key, rep)
}

func (in *Interner) occ(resolved string, rep Type) ID {
	key := append(append(in.buf[:0], tagOcc), resolved...)
	return in.get(key, rep)
}

func (in *Interner) occ2(prefix, name string, rep Type) ID {
	key := append(append(append(in.buf[:0], tagOcc), prefix...), name...)
	return in.get(key, rep)
}

func (in *Interner) unary(tag byte, child ID, rep Type) ID {
	key := appendID(append(in.buf[:0], tag), child)
	return in.get(key, rep)
}

func (in *Interner) get(key []byte, rep Type) ID {
	// Keep the (possibly grown) scratch buffer for the next node.
	in.buf = key[:0]
	if id, ok := in.table[string(key)]; ok {
		return id
	}
	id := ID(len(in.reps))
	in.table[string(key)] = id
	in.reps = append(in.reps, rep)
	return id
}

func appendID(b []byte, id ID) []byte {
	return binary.LittleEndian.AppendUint32(b, uint32(id))
}

func appendInt(b []byte, n int) []byte {
	return binary.LittleEndian.AppendUint32(b, uint32(n))
}

// sortIDs is an insertion sort: the flattened leaf lists of unions and
// parallel compositions are short, and this avoids sort.Slice's closure
// allocation on the exploration hot path.
func sortIDs(ids []ID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
