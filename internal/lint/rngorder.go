package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RngOrderAnalyzer flags draws from a seeded RNG stream in contexts
// whose execution order is not the program order: goroutine bodies
// (scheduling order), sort comparators (the algorithm's comparison
// sequence, which varies with input permutation and implementation),
// and map-range bodies (randomized iteration order). A seeded
// *rand.Rand replays byte-identically only if the Nth draw always
// belongs to the same consumer; any of these contexts reassigns draws
// between runs and silently breaks digest identity even though every
// RNG in the repo is explicitly seeded.
//
// Scope: method calls on math/rand types (a seeded stream; the global
// top-level funcs are globalrand's department) and the module-internal
// shared-RNG consumers (profiler.Observe/ProbeAll/Measure). The analysis is
// lexical and intra-procedural: a named function launched with go is
// not followed into.
var RngOrderAnalyzer = &Analyzer{
	Name: "rngorder",
	Doc:  "seeded RNG draws inside goroutines, sort comparators, or map-range bodies (execution order reassigns the stream's samples)",
	Run:  runRngOrder,
}

// comparatorCallees are sort/slices entry points whose function-literal
// argument is invoked in algorithm-determined order.
var comparatorCallees = map[string]bool{
	"Slice": true, "SliceStable": true, "SliceIsSorted": true, "Search": true,
	"SortFunc": true, "SortStableFunc": true, "IsSortedFunc": true,
	"BinarySearchFunc": true, "MinFunc": true, "MaxFunc": true, "CompactFunc": true,
}

func runRngOrder(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		rngWalk(pass, f, "", token.NoPos)
	}
}

// rngWalk traverses n reporting RNG draws when ctx names an
// order-scrambling context; entering a nested context narrows ctx to
// the innermost one (a draw is reported once, against the context
// closest to it).
func rngWalk(pass *Pass, n ast.Node, ctx string, ctxPos token.Pos) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch v := m.(type) {
		case *ast.GoStmt:
			// Arguments are evaluated in program order by the spawner;
			// only the body runs on the scheduler's clock.
			for _, a := range v.Call.Args {
				rngWalk(pass, a, ctx, ctxPos)
			}
			if fl, ok := v.Call.Fun.(*ast.FuncLit); ok {
				rngWalk(pass, fl.Body, "a goroutine", v.Pos())
			}
			return false
		case *ast.CallExpr:
			if fl, ok := comparatorLit(pass, v); ok {
				for _, a := range v.Args {
					if a != fl {
						rngWalk(pass, a, ctx, ctxPos)
					}
				}
				rngWalk(pass, fl.Body, "a sort comparator", fl.Pos())
				return false
			}
			if ctx != "" {
				reportRngDraw(pass, v, ctx, ctxPos)
			}
			return true
		case *ast.RangeStmt:
			rngWalk(pass, v.X, ctx, ctxPos)
			if _, isMap := typeUnder(pass.TypeOf(v.X)).(*types.Map); isMap {
				rngWalk(pass, v.Body, "a map-range body", v.Pos())
			} else {
				rngWalk(pass, v.Body, ctx, ctxPos)
			}
			return false
		}
		return true
	})
}

// comparatorLit resolves a call to a sort/slices comparator-taking
// entry point and returns its function-literal argument.
func comparatorLit(pass *Pass, call *ast.CallExpr) (*ast.FuncLit, bool) {
	fn := pass.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return nil, false
	}
	if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
		return nil, false
	}
	if !comparatorCallees[fn.Name()] {
		return nil, false
	}
	for _, a := range call.Args {
		if fl, ok := ast.Unparen(a).(*ast.FuncLit); ok {
			return fl, true
		}
	}
	return nil, false
}

// reportRngDraw flags the call if it consumes a seeded RNG stream.
func reportRngDraw(pass *Pass, call *ast.CallExpr, ctx string, ctxPos token.Pos) {
	fn := pass.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	sig, _ := fn.Type().(*types.Signature)
	switch {
	case (path == "math/rand" || path == "math/rand/v2") && sig != nil && sig.Recv() != nil:
		pass.ReportRelated(call.Pos(),
			[]Related{pass.Note(ctxPos, "%s begins here", ctx)},
			"%s draw inside %s; execution order decides which call gets which sample — draw outside, or give the context its own RNG",
			fn.Name(), ctx)
	case rngConsumers[path] != nil && rngConsumers[path][fn.Name()]:
		pass.ReportRelated(call.Pos(),
			[]Related{pass.Note(ctxPos, "%s begins here", ctx)},
			"%s.%s consumes the shared %s RNG inside %s; execution order decides which call gets which sample",
			fn.Pkg().Name(), fn.Name(), fn.Pkg().Name(), ctx)
	}
}
