package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Determinism enforces the engine's frozen determinism contract on every
// non-test package under oblivhm/internal/: the golden-metrics snapshots,
// the chaos same-seed reproducibility tests and the reference-schedule
// equivalence tests all assume that a run is a pure function of (machine,
// workload, seed). The analyzer rejects the constructs that break that:
//
//   - wall-clock reads (time.Now, Since, Sleep, timers, tickers),
//   - the unseeded global math/rand source (package-level rand.Intn etc.;
//     an explicitly seeded rand.New(rand.NewSource(k)) stream is fine and
//     is the harness convention),
//   - iteration over a map (order is randomized per run by the runtime),
//   - sync.Map (iteration order and interleaving are unspecified),
//   - go statements outside the sanctioned native entry points — the
//     native-mode executor's worker spawns, each carrying an
//     //oblivcheck:allow annotation citing its equivalence argument.  The
//     simulated engine has no go statement: its strands are coroutines,
//   - writes to package-level variables outside init: assignment
//     (v = append(v, x) included), ++/--, a store through an index, field
//     or pointer, and copy, clear or delete into one.  Such state outlives
//     the run that wrote it, so a later run sees it, and it races under
//     any concurrent caller; run state belongs on the run's own values.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "engine and algorithm code must stay deterministic: no wall clock, unseeded rand, map order, sync.Map, unsanctioned goroutines, or package-level state written after init",
	Run:  runDeterminism,
}

// wallClockFuncs are the package-level time functions that read or depend
// on the wall clock or a runtime timer.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// seededRandFuncs are the math/rand package-level functions that construct
// explicit generators rather than drawing from the global source.
var seededRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 constructors.
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) {
	if !enginePackage(pass.Path) {
		return
	}
	eachSourceFile(pass, func(f *ast.File) {
		for _, decl := range f.Decls {
			inspectDeterminism(pass, decl, isInit(decl))
		}
	})
}

// isInit reports whether decl is a package init function, the one place
// package initialisation may set package state.
func isInit(decl ast.Decl) bool {
	fd, ok := decl.(*ast.FuncDecl)
	return ok && fd.Recv == nil && fd.Name.Name == "init"
}

// inspectDeterminism walks one top-level declaration. inInit exempts it
// from the package-write checks only; every other check still runs.
func inspectDeterminism(pass *Pass, decl ast.Decl, inInit bool) {
	checkWrite := func(target ast.Expr) {
		if !inInit {
			checkPackageWrite(pass, target)
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					checkWrite(lhs)
				}
			}
		case *ast.IncDecStmt:
			checkWrite(n.X)
		case *ast.CallExpr:
			checkDeterministicCall(pass, n)
			if !inInit {
				checkMutatingBuiltin(pass, n)
			}
		case *ast.GoStmt:
			pass.Reportf(n.Pos(),
				"go statement outside the sanctioned native entry points: engine scheduling must not depend on runtime goroutine interleaving")
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				for _, x := range [2]ast.Expr{n.Key, n.Value} {
					if x != nil {
						checkWrite(x)
					}
				}
			}
			if tv, ok := pass.TypesInfo.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(),
						"iteration over a map: order is randomized per run; iterate a sorted key slice or annotate an order-independent loop")
				}
			}
		case *ast.SelectorExpr:
			if tv, ok := pass.TypesInfo.Types[n]; ok && tv.IsType() && namedFrom(tv.Type, "sync", "Map") {
				pass.Reportf(n.Pos(),
					"sync.Map use: iteration order and interleaving are unspecified; use a plain map behind the engine's round structure")
			}
		}
		return true
	})
}

func checkDeterministicCall(pass *Pass, call *ast.CallExpr) {
	fn := funcObj(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	// Package-level functions only: methods on explicit *rand.Rand /
	// *time.Timer values are reached through a flagged constructor anyway.
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock: runs must be pure functions of (machine, workload, seed)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !seededRandFuncs[fn.Name()] {
			pass.Reportf(call.Pos(),
				"%s.%s draws from the global unseeded source: thread an explicit rand.New(rand.NewSource(seed)) stream instead (see internal/core/chaos.go for the engine-side convention)", fn.Pkg().Name(), fn.Name())
		}
	}
}

// mutatingBuiltins are the builtins that write through their first
// argument without an assignment.
var mutatingBuiltins = map[string]bool{"copy": true, "clear": true, "delete": true}

// checkPackageWrite reports an assignment target that stores into a
// package-level variable.
func checkPackageWrite(pass *Pass, target ast.Expr) {
	if v := packageVarRoot(pass.TypesInfo, target); v != nil {
		pass.Reportf(target.Pos(),
			"write to package-level variable %s outside init: it outlives the run and races under concurrent callers; keep run state on the run's own values", v.Name())
	}
}

// checkMutatingBuiltin reports copy/clear/delete into a package-level
// variable.
func checkMutatingBuiltin(pass *Pass, call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) == 0 || !mutatingBuiltins[id.Name] {
		return
	}
	if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	if v := packageVarRoot(pass.TypesInfo, call.Args[0]); v != nil {
		pass.Reportf(call.Pos(),
			"%s on package-level variable %s outside init: it outlives the run and races under concurrent callers; keep run state on the run's own values", id.Name, v.Name())
	}
}

// packageVarRoot returns the package-level variable that an expression
// stores into — the variable itself, or the one an index, slice, field or
// dereference chain starts from — or nil.
func packageVarRoot(info *types.Info, x ast.Expr) *types.Var {
	for {
		switch e := ast.Unparen(x).(type) {
		case *ast.Ident:
			return packageVar(info.Uses[e])
		case *ast.IndexExpr:
			x = e.X
		case *ast.SliceExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		case *ast.SelectorExpr:
			if v := packageVar(info.Uses[e.Sel]); v != nil {
				return v // a qualified pkg.Var
			}
			x = e.X
		default:
			return nil
		}
	}
}

func packageVar(obj types.Object) *types.Var {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil || v.Pkg().Scope().Lookup(v.Name()) != v {
		return nil
	}
	return v
}
