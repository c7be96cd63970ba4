package frontend

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	gotypes "go/types"

	"effpi/internal/types"
)

const (
	maxInlineDepth = 64
	maxLoopIter    = 512
)

// refusal aborts extraction of one entry; recovered at the entry boundary.
type refusal struct{ d Diagnostic }

// chanInfo is one extracted channel (a NewChan or NewMailbox site).
type chanInfo struct {
	id   int
	name string // environment name; "" until bound
	elem *elemRef
	pos  token.Pos
}

// value is the abstract-interpretation domain.
type value interface{ frontendValue() }

type chanV struct{ info *chanInfo }

// msgV is a value bound by an input prefix: the Pi variable of the
// extracted In node. srcElem is the carrying channel's element ref —
// the message's own type — which makes payload forwarding dependent
// (sending a received message yields the singleton x̄, as in the paper).
type msgV struct {
	name    string
	srcElem *elemRef
	goType  gotypes.Type // static Go type when received from a typed mailbox
}

type constV struct {
	v      constant.Value
	goType gotypes.Type
}

// opaqueV is a data value with known static type but unknown content.
type opaqueV struct{ goType gotypes.Type }

type sliceV struct{ elems []value }

type structV struct {
	fields []fieldV
	goType gotypes.Type
}

type fieldV struct {
	name string
	v    value
}

type engineV struct{}

type funcV struct {
	decl *ast.FuncDecl // top-level function, or
	lit  *ast.FuncLit  // closure with its defining scope
	sc   *scope
}

// loopV is the continuation passed into a Forever body.
type loopV struct{ recVar string }

type procV struct{ t types.Type }

type tupleV struct{ elems []value }

func (chanV) frontendValue()   {}
func (msgV) frontendValue()    {}
func (constV) frontendValue()  {}
func (opaqueV) frontendValue() {}
func (*sliceV) frontendValue() {}
func (structV) frontendValue() {}
func (engineV) frontendValue() {}
func (funcV) frontendValue()   {}
func (loopV) frontendValue()   {}
func (procV) frontendValue()   {}
func (tupleV) frontendValue()  {}

type scope struct {
	parent *scope
	vars   map[string]value
}

func newScope(parent *scope) *scope {
	return &scope{parent: parent, vars: map[string]value{}}
}

func (s *scope) lookup(name string) (value, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if v, ok := sc.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

func (s *scope) define(name string, v value) { s.vars[name] = v }

func (s *scope) assign(name string, v value) bool {
	for sc := s; sc != nil; sc = sc.parent {
		if _, ok := sc.vars[name]; ok {
			sc.vars[name] = v
			return true
		}
	}
	return false
}

// snapshot deep-copies the scope chain so τ-widened branches interpret
// mutations independently. sliceV contents are copied one level.
func (s *scope) snapshot() *scope {
	if s == nil {
		return nil
	}
	ns := &scope{parent: s.parent.snapshot(), vars: make(map[string]value, len(s.vars))}
	for k, v := range s.vars {
		if sv, ok := v.(*sliceV); ok {
			v = &sliceV{elems: append([]value(nil), sv.elems...)}
		}
		ns.vars[k] = v
	}
	return ns
}

type frame struct {
	key    string
	recVar string
	used   bool
}

type extractor struct {
	pkg       *loadedPackage
	modPath   string
	entry     string
	diags     *[]Diagnostic
	chans     []*chanInfo
	names     map[string]bool
	nextElem  int
	sentinels map[string]*elemRef
	smap      *SourceMap
	frames    []*frame
	loopUsed  map[string]*bool
	recCount  int
}

func (x *extractor) runtimePath() string { return x.modPath + "/internal/runtime" }
func (x *extractor) actorPath() string   { return x.modPath + "/internal/actor" }

func (x *extractor) position(p token.Pos) token.Position { return x.pkg.fset.Position(p) }

func (x *extractor) warn(code string, p token.Pos, format string, args ...any) {
	*x.diags = append(*x.diags, Diagnostic{
		Code: code, Entry: x.entry, Pos: x.position(p), Msg: fmt.Sprintf(format, args...),
	})
}

func (x *extractor) refuse(code string, p token.Pos, format string, args ...any) {
	panic(refusal{Diagnostic{
		Code: code, Entry: x.entry, Pos: x.position(p), Fatal: true,
		Msg: fmt.Sprintf(format, args...),
	}})
}

// claimName returns base, uniquified against every channel, message and
// recursion variable claimed so far — extracted names never capture.
func (x *extractor) claimName(base string) string {
	if base == "" || base == "_" {
		base = "ch"
	}
	name := base
	for i := 2; x.names[name]; i++ {
		name = fmt.Sprintf("%s%d", base, i)
	}
	x.names[name] = true
	return name
}

func (x *extractor) freshRecVar() string {
	x.recCount++
	if x.recCount == 1 {
		return "t"
	}
	return fmt.Sprintf("t%d", x.recCount)
}

func (x *extractor) newChan(p token.Pos) *chanInfo {
	ci := &chanInfo{id: len(x.chans), elem: x.newElem(), pos: p}
	x.chans = append(x.chans, ci)
	return ci
}

// bindChanName names a freshly created channel after its binding. If the
// name already denotes a channel visible in scope, the creation shadows
// a live mailbox: warn and rename, never silently merge.
func (x *extractor) bindChanName(ci *chanInfo, base string, sc *scope, p token.Pos) {
	if ci.name != "" || base == "_" {
		return
	}
	if old, ok := sc.lookup(base); ok {
		if _, isChan := old.(chanV); isChan {
			x.warn(CodeShadowedMailbox, p,
				"channel %q shadows an existing channel of the same name; the new channel is renamed in the extracted environment", base)
		}
	}
	ci.name = x.claimName(base)
}

// extractEntry extracts one entry function; nil if the entry is refused.
func extractEntry(pkg *loadedPackage, modPath string, fn *ast.FuncDecl, diags *[]Diagnostic) (sys *System) {
	x := &extractor{
		pkg:       pkg,
		modPath:   modPath,
		entry:     fn.Name.Name,
		diags:     diags,
		names:     map[string]bool{},
		sentinels: map[string]*elemRef{},
		smap:      NewSourceMap(),
		loopUsed:  map[string]*bool{},
	}
	defer func() {
		if r := recover(); r != nil {
			ref, ok := r.(refusal)
			if !ok {
				panic(r)
			}
			*diags = append(*diags, ref.d)
			sys = nil
		}
	}()
	sc := newScope(nil)
	for _, field := range fn.Type.Params.List {
		for _, n := range field.Names {
			sc.define(n.Name, engineV{})
		}
	}
	ret, returned := x.walkBody(fn.Body.List, sc)
	if !returned {
		x.refuse(CodeUnsupported, fn.End(), "entry falls through without returning a proc")
	}
	t := x.asProc(ret, fn.Body.Pos())

	lookup := make(map[string]types.Type, len(x.sentinels))
	for name, ref := range x.sentinels {
		lookup[name] = x.resolveElem(ref, map[*elemRef]bool{})
	}
	// Sentinel names are never bound, so replacing them ignores binders.
	t = types.ReplaceVars(t, lookup)

	env := types.NewEnv()
	for _, ci := range x.chans {
		if ci.name == "" {
			ci.name = x.claimName("ch")
		}
		env = env.MustExtend(ci.name, types.ChanIO{Elem: x.resolveElem(ci.elem, map[*elemRef]bool{})})
	}
	return &System{
		Name: fn.Name.Name,
		Pkg:  pkg.dir,
		Pos:  pkg.fset.Position(fn.Pos()),
		Env:  env,
		Type: t,
		Map:  x.smap,
	}
}

// walkBody interprets a statement list; returns (value, true) when a
// return statement decides the result.
func (x *extractor) walkBody(stmts []ast.Stmt, sc *scope) (value, bool) {
	for i, st := range stmts {
		rest := stmts[i+1:]
		switch s := st.(type) {
		case *ast.ReturnStmt:
			if len(s.Results) != 1 {
				x.refuse(CodeUnsupported, s.Pos(), "expected exactly one return value")
			}
			v := x.eval(s.Results[0], sc)
			if ov, ok := v.(opaqueV); ok && isRuntimeNamed(ov.goType, x.modPath, "Proc") {
				// Refuse here rather than at the enclosing combinator so
				// the diagnostic points at the expression that escaped.
				x.refuse(CodeEscapingProc, s.Results[0].Pos(),
					"proc value escapes static extraction (opaque expression of type %s)", ov.goType)
			}
			return v, true
		case *ast.BlockStmt:
			if v, ok := x.walkBody(s.List, newScope(sc)); ok {
				return v, true
			}
		case *ast.IfStmt:
			if s.Init != nil {
				x.refuse(CodeUnsupported, s.Pos(), "if statements with init clauses are not extractable")
			}
			cond, known := x.constBool(s.Cond, sc)
			if known {
				var branch []ast.Stmt
				if cond {
					branch = s.Body.List
				} else if s.Else != nil {
					branch = elseStmts(s.Else)
				}
				if v, ok := x.walkBody(branch, newScope(sc)); ok {
					return v, true
				}
				continue
			}
			// Data-dependent branch: τ-widening. The extracted type is the
			// internal choice of both continuations — a sound
			// overapproximation of whichever branch the data selects.
			thenStmts := append(append([]ast.Stmt(nil), s.Body.List...), rest...)
			var elseList []ast.Stmt
			if s.Else != nil {
				elseList = elseStmts(s.Else)
			}
			elseAll := append(append([]ast.Stmt(nil), elseList...), rest...)
			tv, ok1 := x.walkBody(thenStmts, sc.snapshot())
			ev, ok2 := x.walkBody(elseAll, sc.snapshot())
			if !ok1 || !ok2 {
				x.refuse(CodeUnsupported, s.Pos(), "data-dependent branch must return a proc on every path")
			}
			return procV{t: types.UnionOf(x.asProc(tv, s.Pos()), x.asProc(ev, s.Pos()))}, true
		default:
			x.execSimpleStmt(st, sc)
		}
	}
	return nil, false
}

func elseStmts(e ast.Stmt) []ast.Stmt {
	switch e := e.(type) {
	case *ast.BlockStmt:
		return e.List
	default:
		return []ast.Stmt{e}
	}
}

// execSimpleStmt interprets an effect-only statement (no proc returns).
func (x *extractor) execSimpleStmt(st ast.Stmt, sc *scope) {
	switch s := st.(type) {
	case *ast.AssignStmt:
		x.execAssign(s, sc)
	case *ast.DeclStmt:
		x.execDecl(s, sc)
	case *ast.IncDecStmt:
		id, ok := s.X.(*ast.Ident)
		if !ok {
			x.refuse(CodeUnsupported, s.Pos(), "unsupported increment target")
		}
		c, ok := x.eval(s.X, sc).(constV)
		if !ok {
			x.refuse(CodeNonConstLoop, s.Pos(), "%s is not compile-time constant", id.Name)
		}
		op := token.ADD
		if s.Tok == token.DEC {
			op = token.SUB
		}
		nv := constant.BinaryOp(c.v, op, constant.MakeInt64(1))
		if !sc.assign(id.Name, constV{v: nv, goType: c.goType}) {
			sc.define(id.Name, constV{v: nv, goType: c.goType})
		}
	case *ast.ForStmt:
		x.execFor(s, sc)
	case *ast.BlockStmt:
		blockSc := newScope(sc)
		for _, inner := range s.List {
			x.execSimpleStmt(inner, blockSc)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			x.refuse(CodeUnsupported, s.Pos(), "if statements with init clauses are not extractable")
		}
		cond, known := x.constBool(s.Cond, sc)
		if !known {
			x.refuse(CodeUnsupported, s.Pos(), "data-dependent branching without a proc return is not extractable")
		}
		if cond {
			x.execSimpleStmt(s.Body, sc)
		} else if s.Else != nil {
			x.execSimpleStmt(s.Else, sc)
		}
	case *ast.EmptyStmt:
	default:
		x.refuse(CodeUnsupported, st.Pos(), "unsupported statement %T in protocol code", st)
	}
}

// execFor unrolls a constant-bound three-clause for loop.
func (x *extractor) execFor(s *ast.ForStmt, sc *scope) {
	if s.Cond == nil {
		x.refuse(CodeNonConstLoop, s.Pos(), "infinite for loops are not extractable; use Forever")
	}
	loopSc := newScope(sc)
	if s.Init != nil {
		x.execSimpleStmt(s.Init, loopSc)
	}
	for iter := 0; ; iter++ {
		if iter > maxLoopIter {
			x.refuse(CodeNonConstLoop, s.Pos(), "loop exceeds the %d-iteration unroll budget", maxLoopIter)
		}
		b, known := x.constBool(s.Cond, loopSc)
		if !known {
			x.refuse(CodeNonConstLoop, s.Cond.Pos(), "loop condition is not compile-time constant")
		}
		if !b {
			return
		}
		bodySc := newScope(loopSc)
		for _, st := range s.Body.List {
			x.execSimpleStmt(st, bodySc)
		}
		if s.Post != nil {
			x.execSimpleStmt(s.Post, loopSc)
		}
	}
}

func (x *extractor) execAssign(s *ast.AssignStmt, sc *scope) {
	define := s.Tok == token.DEFINE
	if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		// compound ops (+=, ...) on constants
		if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
			op, ok := compoundOp(s.Tok)
			if ok {
				l, lok := x.eval(s.Lhs[0], sc).(constV)
				r, rok := x.eval(s.Rhs[0], sc).(constV)
				if lok && rok {
					x.bindTarget(s.Lhs[0], constV{v: binaryConst(l.v, op, r.v), goType: l.goType}, false, sc)
					return
				}
			}
		}
		x.refuse(CodeUnsupported, s.Pos(), "unsupported assignment operator %s", s.Tok)
	}
	var vals []value
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		v := x.eval(s.Rhs[0], sc)
		tup, ok := v.(tupleV)
		if !ok || len(tup.elems) != len(s.Lhs) {
			x.refuse(CodeUnsupported, s.Pos(), "unsupported multi-value assignment")
		}
		vals = tup.elems
	} else if len(s.Rhs) == len(s.Lhs) {
		for _, r := range s.Rhs {
			vals = append(vals, x.eval(r, sc))
		}
	} else {
		x.refuse(CodeUnsupported, s.Pos(), "unsupported assignment shape")
	}
	for i, lhs := range s.Lhs {
		x.bindTarget(lhs, vals[i], define, sc)
	}
}

func compoundOp(t token.Token) (token.Token, bool) {
	switch t {
	case token.ADD_ASSIGN:
		return token.ADD, true
	case token.SUB_ASSIGN:
		return token.SUB, true
	case token.MUL_ASSIGN:
		return token.MUL, true
	case token.REM_ASSIGN:
		return token.REM, true
	}
	return token.ILLEGAL, false
}

func (x *extractor) bindTarget(lhs ast.Expr, v value, define bool, sc *scope) {
	switch t := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if cv, ok := v.(chanV); ok {
			x.bindChanName(cv.info, t.Name, sc, t.Pos())
		}
		if t.Name == "_" {
			return
		}
		if define {
			sc.define(t.Name, v)
			return
		}
		if !sc.assign(t.Name, v) {
			x.refuse(CodeUnsupported, t.Pos(), "assignment to %q, which is not a local value", t.Name)
		}
	case *ast.IndexExpr:
		base := x.eval(t.X, sc)
		sv, ok := base.(*sliceV)
		if !ok {
			x.refuse(CodeUnsupported, t.Pos(), "unsupported indexed assignment target")
		}
		idx := x.constIndex(t.Index, sc, len(sv.elems))
		if cv, ok := v.(chanV); ok && cv.info.name == "" {
			if baseName, ok := ast.Unparen(t.X).(*ast.Ident); ok {
				cv.info.name = x.claimName(fmt.Sprintf("%s%d", baseName.Name, idx))
			}
		}
		sv.elems[idx] = v
	default:
		x.refuse(CodeUnsupported, lhs.Pos(), "unsupported assignment target %T", lhs)
	}
}

func (x *extractor) constIndex(e ast.Expr, sc *scope, n int) int {
	v := x.eval(e, sc)
	c, ok := v.(constV)
	if !ok {
		x.refuse(CodeNonConstChannel, e.Pos(), "index is not compile-time constant")
	}
	i, ok := constant.Int64Val(constant.ToInt(c.v))
	if !ok || i < 0 || int(i) >= n {
		x.refuse(CodeUnsupported, e.Pos(), "index %s out of extractable range", c.v)
	}
	return int(i)
}

func (x *extractor) execDecl(s *ast.DeclStmt, sc *scope) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		x.refuse(CodeUnsupported, s.Pos(), "unsupported declaration")
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			x.refuse(CodeUnsupported, spec.Pos(), "unsupported declaration")
		}
		for i, name := range vs.Names {
			var v value
			if i < len(vs.Values) {
				v = x.eval(vs.Values[i], sc)
			} else {
				v = x.zeroValue(name)
			}
			if cv, ok := v.(chanV); ok {
				x.bindChanName(cv.info, name.Name, sc, name.Pos())
			}
			if name.Name != "_" {
				sc.define(name.Name, v)
			}
		}
	}
}

func (x *extractor) zeroValue(name *ast.Ident) value {
	gt := x.pkg.info.TypeOf(name)
	if gt != nil {
		if _, ok := gt.Underlying().(*gotypes.Slice); ok {
			return &sliceV{}
		}
	}
	return opaqueV{goType: gt}
}

func (x *extractor) constBool(e ast.Expr, sc *scope) (bool, bool) {
	v := x.eval(e, sc)
	if c, ok := v.(constV); ok && c.v.Kind() == constant.Bool {
		return constant.BoolVal(c.v), true
	}
	return false, false
}

// asProc demands a proc value; anything else means the proc escaped the
// extractable fragment somewhere upstream.
func (x *extractor) asProc(v value, p token.Pos) types.Type {
	switch v := v.(type) {
	case procV:
		return v.t
	case opaqueV:
		x.refuse(CodeEscapingProc, p, "proc value escapes static extraction (opaque expression of type %s)", v.goType)
	}
	x.refuse(CodeEscapingProc, p, "expression does not evaluate to an extractable proc")
	return nil
}
