package frontend

import (
	"fmt"
	"go/token"
	gotypes "go/types"

	"effpi/internal/types"
)

// elemRef is a unification variable for the element type of an extracted
// channel. The constraint grammar is deliberately tiny:
//
//	E ::= unknown | T (concrete effpi type) | co[E]
//
// Typed mailboxes solve their ref immediately (from the Go type
// argument); untyped runtime.Chan refs are solved by the sends observed
// on them — a data send assigns a concrete type, a channel send assigns
// co[E'] where E' is the sent channel's own ref.
type elemRef struct {
	id     int
	fwd    *elemRef // union-find forwarding
	t      types.Type
	chanOf *elemRef
}

func (e *elemRef) find() *elemRef {
	for e.fwd != nil {
		e = e.fwd
	}
	return e
}

func (x *extractor) newElem() *elemRef {
	e := &elemRef{id: x.nextElem}
	x.nextElem++
	return e
}

// elemSentinel is the placeholder Var standing for an unsolved elemRef
// inside the type under construction; substituted out after extraction.
// The NUL prefix keeps it out of the user-visible name space.
func (x *extractor) sentinelFor(e *elemRef) types.Type {
	name := fmt.Sprintf("\x00e%d", e.id)
	x.sentinels[name] = e
	return types.Var{Name: name}
}

// assignElem constrains e to the concrete effpi type t.
func (x *extractor) assignElem(e *elemRef, t types.Type, p token.Pos) {
	e = e.find()
	switch {
	case e.t != nil:
		if !types.Equal(e.t, t) {
			x.refuse(CodeElemConflict, p, "channel carries both %s and %s", e.t, t)
		}
	case e.chanOf != nil:
		co, ok := t.(types.ChanO)
		if !ok {
			x.refuse(CodeElemConflict, p, "channel carries both a channel and %s", t)
		}
		x.assignElem(e.chanOf, co.Elem, p)
	default:
		e.t = t
	}
}

// chanOfElem constrains e to be co[inner] and returns inner: the
// element type of the channels carried on the channel e describes.
func (x *extractor) chanOfElem(e *elemRef, p token.Pos) *elemRef {
	e = e.find()
	if e.chanOf != nil {
		return e.chanOf
	}
	if e.t != nil {
		inner := x.newElem()
		switch ct := e.t.(type) {
		case types.ChanO:
			inner.t = ct.Elem
		case types.ChanI:
			inner.t = ct.Elem
		case types.ChanIO:
			inner.t = ct.Elem
		default:
			x.refuse(CodeElemConflict, p, "value of type %s is used as a channel", e.t)
		}
		return inner
	}
	e.chanOf = x.newElem()
	return e.chanOf
}

// unifyElem merges the constraints of two refs.
func (x *extractor) unifyElem(a, b *elemRef, p token.Pos) {
	a, b = a.find(), b.find()
	if a == b {
		return
	}
	switch {
	case a.t != nil && b.t != nil:
		if !types.Equal(a.t, b.t) {
			x.refuse(CodeElemConflict, p, "channel carries both %s and %s", a.t, b.t)
		}
		b.fwd = a
	case a.t != nil && b.chanOf != nil:
		inner := x.chanOfElem(a, p)
		x.unifyElem(inner, b.chanOf, p)
		b.chanOf = nil
		b.fwd = a
	case b.t != nil && a.chanOf != nil:
		x.unifyElem(b, a, p)
	case b.t != nil:
		a.fwd = b
	case a.chanOf != nil && b.chanOf != nil:
		x.unifyElem(a.chanOf, b.chanOf, p)
		b.chanOf = nil
		b.fwd = a
	default:
		b.fwd = a
	}
}

// resolveElem computes the final element type of a ref; unconstrained
// refs (a channel nothing is ever sent on) default to unit.
func (x *extractor) resolveElem(e *elemRef, seen map[*elemRef]bool) types.Type {
	e = e.find()
	if seen[e] {
		x.refuse(CodeElemConflict, token.NoPos, "recursive channel element type")
	}
	seen[e] = true
	defer delete(seen, e)
	if e.t != nil {
		return e.t
	}
	if e.chanOf != nil {
		return types.ChanO{Elem: x.resolveElem(e.chanOf, seen)}
	}
	return types.Unit{}
}

// mapGoType maps a Go type to the effpi payload type it models:
//
//   - bool → bool, string/error → str, numeric → int
//   - empty struct → unit; struct with data fields only → str (an
//     opaque data blob)
//   - actor.Ref[T] → co[map(T)], actor.Mailbox[T] → ci[map(T)]
//   - a struct with exactly one channel-typed field is modelled AS that
//     channel (Pay{Amount int; ReplyTo Ref[Response]} ≡ co[str]),
//     mirroring how the hand-written models track only the reply
//     capability of a message
//
// Everything else — several channel fields, opaque *runtime.Chan fields,
// interfaces, slices — refuses with payload-type.
func (x *extractor) mapGoType(gt gotypes.Type, p token.Pos) types.Type {
	gt = gotypes.Unalias(gt)
	if t := x.refMailboxType(gt, p); t != nil {
		return t
	}
	switch u := gt.Underlying().(type) {
	case *gotypes.Basic:
		info := u.Info()
		switch {
		case info&gotypes.IsBoolean != 0:
			return types.Bool{}
		case info&gotypes.IsString != 0:
			return types.Str{}
		case info&gotypes.IsNumeric != 0:
			return types.Int{}
		}
	case *gotypes.Struct:
		var chanField gotypes.Type
		nchan := 0
		for i := 0; i < u.NumFields(); i++ {
			ft := u.Field(i).Type()
			if x.isChannelish(ft, 0) {
				nchan++
				chanField = ft
			}
		}
		switch {
		case nchan == 1:
			return x.mapGoType(chanField, p)
		case nchan > 1:
			x.refuse(CodePayloadType, p, "struct %s has %d channel-typed fields; at most one is supported", gt, nchan)
		case u.NumFields() == 0:
			return types.Unit{}
		default:
			return types.Str{}
		}
	}
	x.refuse(CodePayloadType, p, "Go type %s has no effpi payload model", gt)
	return nil
}

// refMailboxType maps actor.Ref[T]/actor.Mailbox[T]; nil otherwise.
func (x *extractor) refMailboxType(gt gotypes.Type, p token.Pos) types.Type {
	named, ok := gt.(*gotypes.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != x.actorPath() {
		return nil
	}
	args := named.TypeArgs()
	if args == nil || args.Len() != 1 {
		return nil
	}
	switch obj.Name() {
	case "Ref":
		return types.ChanO{Elem: x.mapGoType(args.At(0), p)}
	case "Mailbox":
		return types.ChanI{Elem: x.mapGoType(args.At(0), p)}
	}
	return nil
}

// isChannelish reports whether a Go type models a channel capability:
// *runtime.Chan, actor.Ref/Mailbox, or a struct with exactly one
// channelish field.
func (x *extractor) isChannelish(gt gotypes.Type, depth int) bool {
	if depth > 8 {
		return false
	}
	gt = gotypes.Unalias(gt)
	if ptr, ok := gt.Underlying().(*gotypes.Pointer); ok {
		return x.isRuntimeChan(ptr.Elem())
	}
	if named, ok := gt.(*gotypes.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == x.actorPath() &&
			(obj.Name() == "Ref" || obj.Name() == "Mailbox") {
			return true
		}
	}
	if st, ok := gt.Underlying().(*gotypes.Struct); ok {
		n := 0
		for i := 0; i < st.NumFields(); i++ {
			if x.isChannelish(st.Field(i).Type(), depth+1) {
				n++
			}
		}
		return n == 1
	}
	return false
}

func (x *extractor) isRuntimeChan(gt gotypes.Type) bool {
	named, ok := gotypes.Unalias(gt).(*gotypes.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == x.runtimePath() && obj.Name() == "Chan"
}
