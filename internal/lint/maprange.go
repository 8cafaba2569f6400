package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapRangeAnalyzer flags ranges over maps whose body does
// order-sensitive work. Go randomizes map iteration order per range,
// so any of the following inside the body makes the result (or the
// emitted event stream) differ between runs with the same seed:
//
//   - float accumulation across iterations (rounding depends on the
//     summation order);
//   - append to a slice that outlives the loop and is never sorted
//     afterwards in the same function (element order is the iteration
//     order);
//   - calls into internal/trace or internal/obs that mention a range
//     variable (event order is the iteration order);
//   - any math/rand draw (which iteration consumes which sample from
//     the shared stream depends on the order).
//
// Writes keyed by the loop's own range variable (m2[k] = ..., or
// acc[k] += v) are order-insensitive and not flagged, as are
// accumulations into variables declared inside the loop body and
// appends whose elements do not depend on a range variable.
var MapRangeAnalyzer = &Analyzer{
	Name: "maprange",
	Doc:  "order-sensitive work (float sums, appends, trace/obs emission, RNG draws) inside map iteration",
	Run:  runMapRange,
}

// Packages whose calls count as trace/obs emission under maprange.
var emissionPkgs = map[string]bool{
	"repro/internal/trace": true,
	"repro/internal/obs":   true,
}

// Module-internal methods that consume a shared RNG stream, treated
// like math/rand draws: calling them in map order changes which
// iteration gets which sample.
var rngConsumers = map[string]map[string]bool{
	"repro/internal/profiler": {"Observe": true, "ProbeAll": true, "Measure": true},
}

func runMapRange(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body == nil {
				return true
			}
			checkFuncBody(pass, body)
			return true
		})
	}
}

// checkFuncBody examines every map range directly inside one function
// body (nested function literals are visited by the outer Inspect).
func checkFuncBody(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
			return false // its body is checked as its own function
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if _, isMap := typeUnder(pass.TypeOf(rs.X)).(*types.Map); !isMap {
			return true
		}
		vars := rangeVarObjs(pass, rs)
		if len(vars) == 0 {
			// Without range variables every iteration is identical, so
			// order cannot be observed (unless the body draws RNG,
			// which the walk below still catches against an empty set).
			vars = map[types.Object]bool{}
		}
		checkMapRangeBody(pass, body, rs, vars)
		return true
	})
}

func rangeVarObjs(pass *Pass, rs *ast.RangeStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.ObjectOf(id); obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// checkMapRangeBody walks one map-range body and reports
// order-sensitive operations, judged relative to this loop's range
// variables.
func checkMapRangeBody(pass *Pass, funcBody *ast.BlockStmt, rs *ast.RangeStmt, vars map[types.Object]bool) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			checkAssign(pass, funcBody, rs, vars, st)
		case *ast.CallExpr:
			checkCall(pass, rs, vars, st)
		}
		return true
	})
}

func checkAssign(pass *Pass, funcBody *ast.BlockStmt, rs *ast.RangeStmt, vars map[types.Object]bool, st *ast.AssignStmt) {
	// Appends: x = append(x, ...) in any assignment form.
	for i, rhs := range st.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !pass.IsBuiltin(call, "append") || len(call.Args) < 2 {
			continue
		}
		argsDepend := false
		for _, a := range call.Args[1:] {
			if loopDependent(pass, a, vars, rs) {
				argsDepend = true
				break
			}
		}
		if !argsDepend {
			continue // loop-invariant elements: content independent of order
		}
		var dest ast.Expr
		if len(st.Lhs) == len(st.Rhs) {
			dest = st.Lhs[i]
		} else if len(st.Lhs) == 1 {
			dest = st.Lhs[0]
		}
		if idx, ok := ast.Unparen(dest).(*ast.IndexExpr); ok && refersTo(pass, idx.Index, vars) {
			continue // m2[k] = append(m2[k], ...): per-key, order-insensitive
		}
		destObj := rootObj(pass, dest)
		if destObj != nil && declaredWithin(destObj, rs.Body) {
			continue // per-iteration slice, discarded or keyed elsewhere
		}
		if destObj != nil && sortedAfter(pass, funcBody, rs, destObj) {
			continue // collect-then-sort idiom
		}
		pass.Report(call.Pos(),
			"append of range-dependent elements inside map iteration; order follows the map — collect and sort, or sort %s after the loop",
			destName(dest))
	}

	// Float accumulation: x op= expr, or x = x op expr.
	switch {
	case len(st.Lhs) == 1 && (st.Tok == token.ADD_ASSIGN || st.Tok == token.SUB_ASSIGN ||
		st.Tok == token.MUL_ASSIGN || st.Tok == token.QUO_ASSIGN):
		checkFloatAccum(pass, rs, vars, st.Lhs[0], st.Rhs[0])
	case len(st.Lhs) == 1 && st.Tok == token.ASSIGN:
		if bin, ok := ast.Unparen(st.Rhs[0]).(*ast.BinaryExpr); ok {
			switch bin.Op {
			case token.ADD, token.SUB, token.MUL, token.QUO:
				lobj := rootObj(pass, st.Lhs[0])
				if lobj == nil {
					break
				}
				if sameRoot(pass, bin.X, lobj) {
					checkFloatAccum(pass, rs, vars, st.Lhs[0], bin.Y)
				} else if sameRoot(pass, bin.Y, lobj) {
					checkFloatAccum(pass, rs, vars, st.Lhs[0], bin.X)
				}
			}
		}
	}
}

// checkFloatAccum reports lhs accumulating a non-constant float across
// map iterations, unless the write is keyed by a range variable or the
// accumulator lives inside the loop body.
func checkFloatAccum(pass *Pass, rs *ast.RangeStmt, vars map[types.Object]bool, lhs, rhs ast.Expr) {
	t := typeUnder(pass.TypeOf(lhs))
	basic, ok := t.(*types.Basic)
	if !ok || basic.Info()&types.IsFloat == 0 {
		return
	}
	if pass.IsConst(rhs) {
		return // adding a constant N times is order-insensitive
	}
	if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && refersTo(pass, idx.Index, vars) {
		return // keyed by this loop's range variable: per-key, order-insensitive
	}
	if obj := rootObj(pass, lhs); obj != nil && declaredWithin(obj, rs.Body) {
		return // accumulator reset every iteration
	}
	pass.Report(lhs.Pos(),
		"float accumulation into %s inside map iteration; summation order follows the map — iterate sorted keys",
		destName(lhs))
}

func checkCall(pass *Pass, rs *ast.RangeStmt, vars map[types.Object]bool, call *ast.CallExpr) {
	fn := pass.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	if emissionPkgs[path] && loopDependent(pass, call, vars, rs) {
		pass.Report(call.Pos(),
			"%s.%s inside map iteration; emission order follows the map — iterate sorted keys",
			fn.Pkg().Name(), fn.Name())
		return
	}
	if path == "math/rand" && consumesRandomness(fn) {
		pass.Report(call.Pos(),
			"%s draw inside map iteration; which iteration gets which sample follows the map — iterate sorted keys",
			fn.Name())
		return
	}
	if methods, ok := rngConsumers[path]; ok && methods[fn.Name()] {
		pass.Report(call.Pos(),
			"%s.%s consumes the shared %s RNG inside map iteration; sample order follows the map — iterate sorted keys",
			fn.Pkg().Name(), fn.Name(), fn.Pkg().Name())
	}
}

// consumesRandomness reports whether the math/rand function or method
// advances an RNG stream (constructors do not).
func consumesRandomness(fn *types.Func) bool {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return true // every *rand.Rand / rand.Source method consumes or reseeds
	}
	switch fn.Name() {
	case "New", "NewSource", "NewZipf":
		return false
	}
	return true
}

// sortedAfter reports whether obj is passed to a sort/slices call
// after the range statement within the same function body — the
// collect-then-sort idiom that restores determinism.
func sortedAfter(pass *Pass, funcBody *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		fn := pass.CalleeFunc(call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, a := range call.Args {
			if mentionsObj(pass, a, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// --- small shared helpers ---

func typeUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// refersTo reports whether any identifier in the expression resolves
// to one of the given objects.
func refersTo(pass *Pass, e ast.Node, objs map[types.Object]bool) bool {
	if len(objs) == 0 {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[pass.ObjectOf(id)] {
			found = true
			return false
		}
		return !found
	})
	return found
}

func mentionsObj(pass *Pass, e ast.Node, obj types.Object) bool {
	return refersTo(pass, e, map[types.Object]bool{obj: true})
}

// loopDependent reports whether the expression mentions a range
// variable of the loop or any variable declared inside the loop body
// (derived per-iteration state, e.g. j := m[id] followed by a use of
// j). Keyed-write exemptions deliberately do NOT use this: an index
// derived from a range variable (m[j.User]) can collide across
// iterations, so only a direct range-variable key is order-safe.
func loopDependent(pass *Pass, e ast.Node, vars map[types.Object]bool, rs *ast.RangeStmt) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return !found
		}
		obj := pass.ObjectOf(id)
		if obj == nil {
			return true
		}
		if vars[obj] {
			found = true
			return false
		}
		if v, isVar := obj.(*types.Var); isVar && declaredWithin(v, rs.Body) {
			found = true
			return false
		}
		return true
	})
	return found
}

// rootObj resolves the variable at the root of an lvalue expression:
// x, x[i], x.f, *x all root at x. Returns nil for anything else.
func rootObj(pass *Pass, e ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return pass.ObjectOf(v)
		case *ast.IndexExpr:
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

func sameRoot(pass *Pass, e ast.Expr, obj types.Object) bool {
	r := rootObj(pass, e)
	return r != nil && r == obj
}

// declaredWithin reports whether the object's declaration lies inside
// the node's source range.
func declaredWithin(obj types.Object, n ast.Node) bool {
	return obj.Pos() >= n.Pos() && obj.Pos() < n.End()
}

func destName(e ast.Expr) string {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return destName(v.X) + "." + v.Sel.Name
	case *ast.IndexExpr:
		return destName(v.X) + "[...]"
	case *ast.StarExpr:
		return "*" + destName(v.X)
	case nil:
		return "the slice"
	default:
		return "the target"
	}
}
