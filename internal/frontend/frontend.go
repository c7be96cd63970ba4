// Package frontend statically extracts effpi behavioural types from Go
// source written against the repository's own combinator packages
// (internal/runtime and internal/actor).
//
// The extractor is an abstract interpreter over the bodies of "entry"
// functions: top-level functions of the form
//
//	func Name() runtime.Proc
//	func Name(e runtime.Engine) runtime.Proc
//
// Continuation closures give sequencing, NewChan/NewMailbox calls give
// the channel environment, Forever loops and converging recursion give
// µ-types. The result is a types.Env + types.Type pair that feeds the
// existing verify pipeline unchanged, plus a SourceMap from extracted
// send/receive actions back to their token.Position, so FAIL witnesses
// can point at file:line instead of interned state ids.
//
// Unextractable constructs never produce silent wrong terms: data-
// dependent branching widens to an internal choice (τ-widening, a sound
// overapproximation of the branch actually taken); everything else —
// dynamic channel arithmetic, proc values escaping through interfaces
// or uninlineable calls, non-constant loop bounds, unbounded recursion
// — refuses the entry with a positioned Diagnostic. See DESIGN.md
// §frontend for the extraction rules and the soundness posture.
package frontend

import (
	"fmt"
	"go/token"

	"effpi/internal/typelts"
	"effpi/internal/types"
)

// Diagnostic codes. The set is part of the tool contract: `effpi lint`
// output and the fixture tests pin code, position and message.
const (
	// CodeNonConstChannel: a channel position (Send.Ch, Recv.Ch, Tell,
	// Read) does not resolve to a statically-known channel — dynamic
	// index, channel arithmetic, value from an opaque call. Fatal.
	CodeNonConstChannel = "nonconst-channel"
	// CodeEscapingProc: a proc value flows through a construct the
	// extractor cannot see through (interface method, method call,
	// opaque callee). Fatal.
	CodeEscapingProc = "escaping-proc"
	// CodeShadowedMailbox: a channel is created under a name that
	// already denotes another channel in scope. Non-fatal: the new
	// channel is renamed in the extracted environment.
	CodeShadowedMailbox = "shadowed-mailbox"
	// CodeUnboundedRecursion: call inlining exceeded the depth budget
	// without converging to a recursive frame. Fatal.
	CodeUnboundedRecursion = "unbounded-recursion"
	// CodeNonConstLoop: a for loop whose bounds are not compile-time
	// constant (or that exceeds the unroll budget). Fatal.
	CodeNonConstLoop = "nonconst-loop"
	// CodePayloadType: a payload's Go type has no effpi model (more
	// than one channel field, opaque *runtime.Chan field, ...). Fatal.
	CodePayloadType = "payload-type"
	// CodeElemConflict: a channel is used at two incompatible element
	// types. Fatal.
	CodeElemConflict = "elem-conflict"
	// CodeUnsupported: any other construct outside the extractable
	// fragment (select, go, method values, ...). Fatal.
	CodeUnsupported = "unsupported"
)

// Diagnostic is a positioned, lint-style extraction finding.
type Diagnostic struct {
	Code  string
	Entry string // entry function being extracted ("" for package-level findings)
	Pos   token.Position
	Msg   string
	// Fatal reports that the enclosing entry was refused: no System is
	// produced for it. Non-fatal diagnostics (shadowed-mailbox) describe
	// a recoverable repair the extractor applied.
	Fatal bool
}

func (d Diagnostic) String() string {
	entry := ""
	if d.Entry != "" {
		entry = d.Entry + ": "
	}
	return fmt.Sprintf("%s: %s%s: %s", d.Pos, entry, d.Code, d.Msg)
}

// System is one extracted entry: a verifiable env+type pair plus the
// source positions of every extracted action.
type System struct {
	Name string // entry function name
	Pkg  string // package directory the entry was extracted from
	Pos  token.Position
	Env  *types.Env
	Type types.Type
	Map  *SourceMap
}

// Result collects everything extracted from a set of packages.
type Result struct {
	Systems     []*System
	Diagnostics []Diagnostic
}

// HasFatal reports whether any entry was refused.
func (r *Result) HasFatal() bool {
	for _, d := range r.Diagnostics {
		if d.Fatal {
			return true
		}
	}
	return false
}

// Dir distinguishes the two action directions a source position can map.
type Dir uint8

const (
	DirSend Dir = iota
	DirRecv
)

type smKey struct {
	name string
	dir  Dir
}

// SourceMap maps (channel-or-message variable name, direction) pairs to
// the source positions of the extracted actions on them. Witness labels
// carry the subject variable (typelts.Output/Input/Comm), so annotating
// a lasso step is a pair of lookups. Lookups may miss — e.g. when the
// exploration substituted a transmitted channel for the static message
// variable the position was recorded under — and that is fine: the
// annotation is best-effort per step.
type SourceMap struct {
	pos map[smKey][]token.Position
}

func NewSourceMap() *SourceMap {
	return &SourceMap{pos: map[smKey][]token.Position{}}
}

func (m *SourceMap) Add(name string, dir Dir, p token.Position) {
	k := smKey{name, dir}
	for _, have := range m.pos[k] {
		if have == p {
			return
		}
	}
	m.pos[k] = append(m.pos[k], p)
}

func (m *SourceMap) Lookup(name string, dir Dir) []token.Position {
	if m == nil {
		return nil
	}
	return m.pos[smKey{name, dir}]
}

// Len returns the number of distinct (name, direction) keys mapped.
func (m *SourceMap) Len() int {
	if m == nil {
		return 0
	}
	return len(m.pos)
}

// LabelPositions returns the source positions behind a witness label:
// the send site for outputs, the receive site for inputs, and both for
// synchronisations. τ-choice, ✔ and ⊠ labels have no position.
func (m *SourceMap) LabelPositions(l typelts.Label) []token.Position {
	if m == nil {
		return nil
	}
	switch l := l.(type) {
	case typelts.Output:
		if v, ok := l.Subject.(types.Var); ok {
			return m.Lookup(v.Name, DirSend)
		}
	case typelts.Input:
		if v, ok := l.Subject.(types.Var); ok {
			return m.Lookup(v.Name, DirRecv)
		}
	case typelts.Comm:
		var out []token.Position
		if v, ok := l.Sender.(types.Var); ok {
			out = append(out, m.Lookup(v.Name, DirSend)...)
		}
		if v, ok := l.Receiver.(types.Var); ok {
			out = append(out, m.Lookup(v.Name, DirRecv)...)
		}
		return out
	}
	return nil
}
