package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SpecSafe encodes DESIGN.md §10's serialize rule as a static check over
// internal/core: every read of scheduler state reachable from speculative
// context must be dominated by a c.serialize() call.
//
// Under parallel rounds (core.WithParallelRounds) a strand's pure stretch
// may execute concurrently with the engine's serial phases.  Scheduler
// state — the engine's mutable fields, join and cacheSlot contents, the
// run-queue deques — is only coherent during the serial phases, so a Ctx
// method (code that can run on a speculating strand) may touch it only
//
//   - after c.serialize(), which pauses a speculator until the commit walk
//     reaches its round, and before anything that can suspend the strand (a
//     charge, a park, a call into algorithm code): suspension can hand the
//     strand back as a speculator, invalidating the serialization; or
//   - on the non-speculating side of an `st.spec` guard.
//
// The walk is interprocedural: it starts at the exported Ctx methods
// (entered from algorithm code, possibly speculating), tracks the
// serialized/possibly-speculating state through branches and calls, and
// propagates the worst entry state over same-package call edges — so the
// inline-spawn helpers called only after serialize are checked under that
// privilege, and an engine helper reached from an unserialized site is
// flagged inside its body.  Closures handed to deferFork are exempt: they
// run on the engine thread during the commit walk by construction.  The
// strand methods (charge, park, specReport, ...) are the engine⇄strand
// protocol layer whose safety is the channel handshake itself, not the
// serialize rule; calls to them conservatively invalidate serialization.
//
// This is the analyzer that would have caught the stale jn.pending read
// fixed in PR 7 at vet time instead of via a 16-seed chaos sweep.
var SpecSafe = &Analyzer{
	Name: "specsafe",
	Doc:  "scheduler-state reads reachable from speculative context are dominated by c.serialize()",
	Run:  runSpecSafe,
}

// specSafePathPrefix scopes the analyzer to the engine package (and its
// testdata twin, which shares the path prefix).
const specSafePathPrefix = modulePrefix + "internal/core"

func specSafePath(path string) bool {
	return path == specSafePathPrefix || strings.HasPrefix(path, specSafePathPrefix+"/")
}

// engineSafeFields are the engine fields a speculating strand may read:
// configuration and structure frozen at session setup (the slot *pointers*
// are structure; the cacheSlot contents are not).  Every other engine field
// is scheduler state.  New engine fields are unsafe by default — mutable
// state added later fails vet until it is either safelisted here with an
// argument or guarded by serialize.
var engineSafeFields = map[string]bool{
	"s": true, "m": true, "quantum": true, "flat": true, "steal": true,
	"reference": true, "chaos": true, "verify": true, "prWorkers": true,
	"watchdog": true, "wdClock": true, "fail": true, "trace": true,
	"prSpecHook": true, "slots": true,
}

// specUnsafeTypes are the named types whose fields are scheduler state
// wholesale (the engine type is special-cased via engineSafeFields).
var specUnsafeTypes = map[string]bool{
	"join": true, "cacheSlot": true, "deque": true, "pending": true,
}

func runSpecSafe(pass *Pass) {
	if !specSafePath(pass.Path) {
		return
	}
	a := &specAnalysis{
		pass:     pass,
		funcs:    make(map[*types.Func]*ast.FuncDecl),
		entry:    make(map[*types.Func]bool),
		reached:  make(map[*types.Func]bool),
		charges:  make(map[*types.Func]int),
		deferred: make(map[*ast.FuncLit]bool),
		reported: make(map[token.Pos]bool),
	}
	a.collect()
	a.solve()
	a.report()
}

type specAnalysis struct {
	pass      *Pass
	funcs     map[*types.Func]*ast.FuncDecl // same-package functions with bodies
	declOrder []*types.Func                 // a.funcs keys in source order
	entry     map[*types.Func]bool          // true = entered serialized/non-speculative
	reached   map[*types.Func]bool          // reachable from speculative context
	charges   map[*types.Func]int           // mayCharge memo: 0 unknown, 1 in progress, 2 no, 3 yes
	deferred  map[*ast.FuncLit]bool         // closures handed to deferFork: exempt
	worklist  []*types.Func
	reporting bool
	reported  map[token.Pos]bool
}

// collect indexes the package's functions and seeds the worklist with the
// exported Ctx methods — the surface algorithm code can call from inside a
// (possibly speculated) round.
func (a *specAnalysis) collect() {
	eachSourceFile(a.pass, func(f *ast.File) {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := a.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			a.funcs[fn] = fd
			a.declOrder = append(a.declOrder, fn)
			// Pre-mark deferFork closure arguments anywhere in the body.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "deferFork" {
					for _, arg := range call.Args {
						if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
							a.deferred[lit] = true
						}
					}
				}
				return true
			})
		}
	})
	// Seed the roots in source order so the fixpoint walk (and with it any
	// partial-progress behavior) is deterministic run to run.
	for _, fn := range a.declOrder {
		if a.isCtxMethod(fn) && fn.Exported() {
			a.meetEntry(fn, false)
		}
	}
}

func (a *specAnalysis) recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func (a *specAnalysis) isCtxMethod(fn *types.Func) bool    { return a.recvTypeName(fn) == "Ctx" }
func (a *specAnalysis) isStrandMethod(fn *types.Func) bool { return a.recvTypeName(fn) == "strand" }

// isSerialize recognizes the privilege-granting Ctx.serialize itself, which
// is excluded from the walk (its body is the speculation protocol).
func (a *specAnalysis) isSerialize(fn *types.Func) bool {
	return fn.Name() == "serialize" && a.isCtxMethod(fn)
}

// meetEntry lowers a function's entry state and schedules (re)walking.
// Entries only move safe -> unsafe, so the fixpoint terminates.
func (a *specAnalysis) meetEntry(fn *types.Func, safe bool) {
	if a.isStrandMethod(fn) || a.isSerialize(fn) {
		return
	}
	if _, ok := a.funcs[fn]; !ok {
		return
	}
	cur, known := a.entry[fn]
	if !known {
		a.entry[fn] = safe
		a.reached[fn] = true
		a.worklist = append(a.worklist, fn)
		return
	}
	if cur && !safe {
		a.entry[fn] = false
		a.worklist = append(a.worklist, fn)
	}
}

func (a *specAnalysis) solve() {
	for len(a.worklist) > 0 {
		fn := a.worklist[len(a.worklist)-1]
		a.worklist = a.worklist[:len(a.worklist)-1]
		a.walkFunc(fn)
	}
}

func (a *specAnalysis) report() {
	a.reporting = true
	// Deterministic order: report in source order of the declarations.
	for _, fn := range a.declOrder {
		if a.reached[fn] {
			a.walkFunc(fn)
		}
	}
}

func (a *specAnalysis) walkFunc(fn *types.Func) {
	fd := a.funcs[fn]
	w := &specWalker{a: a, safe: a.entry[fn]}
	w.walkStmts(fd.Body.List)
}

// mayCharge reports whether calling fn can suspend the strand: directly (a
// strand charge/park/report), through a dynamic call (algorithm code charges
// on every access), or transitively.  Suspension invalidates serialization —
// the strand may resume as a speculator.
func (a *specAnalysis) mayCharge(fn *types.Func) bool {
	if a.isStrandMethod(fn) {
		return true
	}
	if a.isSerialize(fn) {
		return false
	}
	switch a.charges[fn] {
	case 1, 2: // in progress (assume no: cycles resolve optimistically) or no
		return false
	case 3:
		return true
	}
	fd, ok := a.funcs[fn]
	if !ok {
		return false // other package or no body: cannot reach strand state
	}
	a.charges[fn] = 1
	result := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if result {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee, dynamic := a.resolveCall(call)
		if dynamic {
			result = true
			return false
		}
		if callee != nil && callee != fn && callee.Pkg() == a.pass.Pkg && a.mayCharge(callee) {
			result = true
			return false
		}
		return true
	})
	if result {
		a.charges[fn] = 3
	} else {
		a.charges[fn] = 2
	}
	return result
}

// resolveCall returns the statically-known callee, or dynamic=true for a
// call through a function value (field, parameter, variable).  Builtins and
// type conversions are neither.
func (a *specAnalysis) resolveCall(call *ast.CallExpr) (callee *types.Func, dynamic bool) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := a.pass.TypesInfo.Types[fun]; ok && tv.IsType() {
		return nil, false // conversion
	}
	var id *ast.Ident
	switch fun := fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.FuncLit:
		return nil, false // immediately-invoked literal: walked in place
	default:
		return nil, true
	}
	switch obj := a.pass.TypesInfo.Uses[id].(type) {
	case *types.Func:
		return obj, false
	case *types.Builtin:
		return nil, false
	case *types.TypeName:
		return nil, false
	default:
		return nil, true // func-typed var, field, or parameter
	}
}

// ---- the state walker ----

type specWalker struct {
	a    *specAnalysis
	safe bool
}

func (w *specWalker) walkStmts(list []ast.Stmt) (terminated bool) {
	for _, s := range list {
		if w.walkStmt(s) {
			return true
		}
	}
	return false
}

func (w *specWalker) walkStmt(s ast.Stmt) (terminated bool) {
	switch s := s.(type) {
	case nil:
		return false
	case *ast.BlockStmt:
		return w.walkStmts(s.List)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scanExpr(e)
		}
		return true
	case *ast.BranchStmt:
		// continue/break/goto end the straight-line path.
		return true
	case *ast.IfStmt:
		return w.walkIf(s)
	case *ast.ForStmt:
		w.walkStmt(s.Init)
		w.scanExpr(s.Cond)
		before := w.safe
		w.walkStmts(s.Body.List)
		w.walkStmt(s.Post)
		// Second pass with the met state so back-edge effects are sound.
		w.safe = w.safe && before
		w.walkStmts(s.Body.List)
		w.walkStmt(s.Post)
		w.scanExpr(s.Cond)
		w.safe = w.safe && before
		return false
	case *ast.RangeStmt:
		w.scanExpr(s.X)
		before := w.safe
		w.walkStmts(s.Body.List)
		w.safe = w.safe && before
		w.walkStmts(s.Body.List)
		w.safe = w.safe && before
		return false
	case *ast.SwitchStmt:
		w.walkStmt(s.Init)
		w.scanExpr(s.Tag)
		return w.walkCases(s.Body)
	case *ast.TypeSwitchStmt:
		w.walkStmt(s.Init)
		return w.walkCases(s.Body)
	case *ast.SelectStmt:
		return w.walkCases(s.Body)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.scanExpr(e)
		}
		for _, e := range s.Lhs {
			w.scanExpr(e)
		}
		return false
	case *ast.ExprStmt:
		w.scanExpr(s.X)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
		return false
	case *ast.IncDecStmt:
		w.scanExpr(s.X)
		return false
	case *ast.DeferStmt:
		// The deferred call runs at an unknowable later state.
		saved := w.safe
		w.safe = false
		w.scanExpr(s.Call)
		w.safe = saved
		return false
	case *ast.GoStmt:
		saved := w.safe
		w.safe = false
		w.scanExpr(s.Call)
		w.safe = saved
		return false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v)
					}
				}
			}
		}
		return false
	case *ast.SendStmt:
		w.scanExpr(s.Chan)
		w.scanExpr(s.Value)
		return false
	}
	return false
}

func (w *specWalker) walkCases(body *ast.BlockStmt) (terminated bool) {
	entry := w.safe
	out := entry
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.scanExpr(e)
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				w.walkStmt(c.Comm)
			}
			stmts = c.Body
		}
		w.safe = entry
		if !w.walkStmts(stmts) {
			out = out && w.safe
		}
	}
	w.safe = out
	return false
}

func (w *specWalker) walkIf(s *ast.IfStmt) (terminated bool) {
	w.walkStmt(s.Init)
	w.scanExpr(s.Cond)
	guard, negated := specGuardCond(w.a.pass.TypesInfo, s.Cond)
	entry := w.safe
	switch {
	case guard && !negated:
		// `if st.spec { ... }`: the then-branch is definitely speculating,
		// the else/fall-through side is definitely not.
		w.safe = false
		tb := w.walkStmts(s.Body.List)
		thenExit := w.safe
		w.safe = true
		var eb bool
		elseExit := true
		if s.Else != nil {
			eb = w.walkStmt(s.Else)
			elseExit = w.safe
		}
		switch {
		case tb && (s.Else != nil && eb):
			return true
		case tb:
			w.safe = elseExit
		case s.Else != nil && eb:
			w.safe = thenExit
		default:
			w.safe = thenExit && elseExit
		}
		return false
	case guard && negated:
		// `if !st.spec { ... }`: then-branch non-speculative, fall-through
		// speculating.
		w.safe = true
		tb := w.walkStmts(s.Body.List)
		thenExit := w.safe
		w.safe = false
		var eb bool
		elseExit := false
		if s.Else != nil {
			eb = w.walkStmt(s.Else)
			elseExit = w.safe
		}
		switch {
		case tb && (s.Else != nil && eb):
			return true
		case tb:
			w.safe = elseExit
		case s.Else != nil && eb:
			w.safe = thenExit
		default:
			w.safe = thenExit && elseExit
		}
		return false
	}
	tb := w.walkStmts(s.Body.List)
	thenExit := w.safe
	w.safe = entry
	var eb bool
	elseExit := entry
	if s.Else != nil {
		eb = w.walkStmt(s.Else)
		elseExit = w.safe
	}
	switch {
	case tb && eb:
		return true
	case tb:
		w.safe = elseExit
	case eb:
		w.safe = thenExit
	default:
		w.safe = thenExit && elseExit
	}
	return false
}

// specGuardCond reports whether cond tests a strand's spec flag, and with
// which polarity ("st.spec" vs "!st.spec").  Conjunctions like
// `st != nil && st.spec` keep the positive polarity.
func specGuardCond(info *types.Info, cond ast.Expr) (found, negated bool) {
	var visit func(e ast.Expr, neg bool)
	visit = func(e ast.Expr, neg bool) {
		switch e := ast.Unparen(e).(type) {
		case *ast.UnaryExpr:
			if e.Op == token.NOT {
				visit(e.X, !neg)
			}
		case *ast.BinaryExpr:
			visit(e.X, neg)
			visit(e.Y, neg)
		case *ast.SelectorExpr:
			if e.Sel.Name != "spec" {
				return
			}
			if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
				if named := namedOf(sel.Recv()); named != nil && named.Obj().Name() == "strand" {
					found, negated = true, neg
				}
			}
		}
	}
	visit(cond, false)
	return found, negated
}

func namedOf(t types.Type) *types.Named {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// scanExpr walks one expression in evaluation-ish order: operand reads are
// checked at the current state, then each call applies its state effect.
func (w *specWalker) scanExpr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
		return
	case *ast.Ident, *ast.BasicLit:
		return
	case *ast.ParenExpr:
		w.scanExpr(e.X)
	case *ast.SelectorExpr:
		w.scanExpr(e.X)
		w.checkSelector(e)
	case *ast.IndexExpr:
		w.scanExpr(e.X)
		w.scanExpr(e.Index)
	case *ast.SliceExpr:
		w.scanExpr(e.X)
		w.scanExpr(e.Low)
		w.scanExpr(e.High)
		w.scanExpr(e.Max)
	case *ast.StarExpr:
		w.scanExpr(e.X)
	case *ast.UnaryExpr:
		w.scanExpr(e.X)
	case *ast.BinaryExpr:
		w.scanExpr(e.X)
		w.scanExpr(e.Y)
	case *ast.TypeAssertExpr:
		w.scanExpr(e.X)
	case *ast.KeyValueExpr:
		w.scanExpr(e.Value)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			w.scanExpr(elt)
		}
	case *ast.FuncLit:
		w.walkLit(e)
	case *ast.CallExpr:
		w.scanExpr(e.Fun)
		for _, arg := range e.Args {
			if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok && w.a.deferred[lit] {
				continue // deferFork closure: runs on the engine thread
			}
			w.scanExpr(arg)
		}
		w.applyCall(e)
	}
}

// walkLit checks a function literal.  Its body runs at an unknowable later
// moment — as a forked strand's root, possibly speculating — so it is
// walked from the unsafe entry state regardless of the creation site.
func (w *specWalker) walkLit(lit *ast.FuncLit) {
	if w.a.deferred[lit] {
		return
	}
	inner := &specWalker{a: w.a, safe: false}
	inner.walkStmts(lit.Body.List)
}

// applyCall propagates the current state into a same-package callee and
// applies the call's effect on the caller's state.
func (w *specWalker) applyCall(call *ast.CallExpr) {
	callee, dynamic := w.a.resolveCall(call)
	if dynamic {
		// A call through a function value reaches algorithm code, which
		// charges on every access: the strand may suspend and resume
		// speculating.
		w.safe = false
		return
	}
	if callee == nil || callee.Pkg() != w.a.pass.Pkg {
		return
	}
	if w.a.isSerialize(callee) {
		w.safe = true
		return
	}
	if !w.a.reporting {
		w.a.meetEntry(callee, w.safe)
	}
	if w.a.mayCharge(callee) {
		w.safe = false
	}
}

// checkSelector flags a scheduler-state field access outside serialized
// context.
func (w *specWalker) checkSelector(sel *ast.SelectorExpr) {
	if w.safe {
		return
	}
	s, ok := w.a.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	named := namedOf(s.Recv())
	if named == nil || named.Obj().Pkg() == nil || !specSafePath(named.Obj().Pkg().Path()) {
		return
	}
	typeName := named.Obj().Name()
	field := sel.Sel.Name
	switch {
	case typeName == "engine" && !engineSafeFields[field]:
	case specUnsafeTypes[typeName]:
	default:
		return
	}
	if !w.a.reporting || w.a.reported[sel.Sel.Pos()] {
		return
	}
	w.a.reported[sel.Sel.Pos()] = true
	w.a.pass.Reportf(sel.Sel.Pos(),
		"scheduler state %s.%s read while possibly speculating: dominate it with c.serialize(), or guard the speculative side with st.spec (DESIGN.md §10)", typeName, field)
}
