package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// OrderAnalyzer flags order-sensitive work in contexts whose execution
// order is not the program order. Go randomizes map iteration order per
// range, the scheduler orders goroutines, and a sort algorithm picks its
// own comparison sequence; a seeded run replays byte-identically only if
// none of those orders reaches a float sum, a slice, an event stream or
// an RNG stream.
//
// One walk finds the order-scrambled contexts, and one table says which
// operations each of them reports:
//
//	context                          float sum  append  emission  RNG draw
//	map range                            ✓        ✓         ✓         ✓
//	range over a map-ordered slice       ✓      (mark)
//	goroutine body, sort comparator                                   ✓
//
// A float sum accumulates a non-constant float into a variable declared
// outside the loop (rounding follows the order). An append adds
// iteration-dependent elements to a slice declared outside the loop and
// not sorted (sort.*/slices.*) after it in the same function; the slice
// becomes map-ordered, as does every plain local alias of it, and inside
// a map range the append is also reported. A map-ordered slice passed to
// a sum-named function (sum, total, mean, avg, average, *sum) is
// reported where it is passed. Emission is a call into internal/trace or
// internal/obs that mentions the iteration. An RNG draw is a method of a
// seeded math/rand stream, or a module method that consumes a shared
// stream (rngConsumers); top-level math/rand draws are globalrand's.
//
// A statement is judged against its enclosing contexts from the innermost
// out, and reported once, by the first that reports it (nested closures
// included). Writes keyed by the loop's own range variable
// (out[k] += v, m2[k] = append(m2[k], ...)) and accumulators declared
// inside the loop are order-insensitive and exempt. The analysis is
// lexical and intra-procedural: a named function launched with go is not
// followed into.
var OrderAnalyzer = &Analyzer{
	Name: "order",
	Doc:  "order-sensitive work (float sums, appends, trace/obs emission, seeded RNG draws) in map ranges, over map-ordered slices, in goroutines and sort comparators",
	Run:  runOrder,
}

// Packages whose calls count as trace/obs emission.
var emissionPkgs = map[string]bool{
	"repro/internal/trace": true,
	"repro/internal/obs":   true,
}

// Module-internal methods that consume a shared RNG stream, treated
// like draws from a seeded *rand.Rand.
var rngConsumers = map[string]map[string]bool{
	"repro/internal/profiler": {"Observe": true, "ProbeAll": true, "Measure": true},
}

// comparatorCallees are sort/slices entry points whose function-literal
// argument is invoked in algorithm-determined order.
var comparatorCallees = map[string]bool{
	"Slice": true, "SliceStable": true, "SliceIsSorted": true, "Search": true,
	"SortFunc": true, "SortStableFunc": true, "IsSortedFunc": true,
	"BinarySearchFunc": true, "MinFunc": true, "MaxFunc": true, "CompactFunc": true,
}

// orderCtx is one order-scrambled context enclosing the walk.
type orderCtx struct {
	rs    *ast.RangeStmt        // the range; nil for a goroutine or sort comparator
	fn    *ast.BlockStmt        // body of the function holding rs
	vars  map[types.Object]bool // rs's range variables
	slice *mapOrdered           // the map-ordered slice rs ranges over; nil for a map range
	name  string                // "a map-range body", "a goroutine", "a sort comparator", or the slice's name
	pos   token.Pos             // where the context begins
}

func (c *orderCtx) mapRange() bool { return c.rs != nil && c.slice == nil }

// mapOrdered records how a local slice acquired map iteration order.
type mapOrdered struct {
	origin token.Pos      // the append that copied map order in
	fn     *ast.BlockStmt // the function and the end of the filling loop,
	end    token.Pos      // for the sorted-after check
}

// orderWalk is one declaration's analysis. Marks grow to a fixpoint over
// silent walks; a last walk reports.
type orderWalk struct {
	pass    *Pass
	report  bool
	changed bool
	ordered map[types.Object]*mapOrdered
}

func runOrder(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			w := &orderWalk{pass: pass, ordered: make(map[types.Object]*mapOrdered)}
			for w.changed = true; w.changed; {
				w.changed = false
				w.walk(decl, nil, nil)
			}
			w.report = true
			w.walk(decl, nil, nil)
		}
	}
}

// walk visits n, inside function body fn, under the contexts ctxs
// (innermost first).
func (w *orderWalk) walk(n ast.Node, fn *ast.BlockStmt, ctxs []*orderCtx) {
	enter := func(body *ast.BlockStmt, c *orderCtx) {
		w.walk(body, body, append([]*orderCtx{c}, ctxs...))
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch v := m.(type) {
		case *ast.FuncDecl:
			if v.Body != nil {
				w.walk(v.Body, v.Body, ctxs)
			}
			return false
		case *ast.FuncLit:
			w.walk(v.Body, v.Body, ctxs)
			return false
		case *ast.GoStmt:
			// Arguments are evaluated in program order by the spawner;
			// only the body runs on the scheduler's clock.
			fl, ok := v.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			for _, a := range v.Call.Args {
				w.walk(a, fn, ctxs)
			}
			enter(fl.Body, &orderCtx{name: "a goroutine", pos: v.Pos()})
			return false
		case *ast.RangeStmt:
			w.walk(v.X, fn, ctxs)
			inner := ctxs
			if c := w.rangeCtx(v, fn); c != nil {
				inner = append([]*orderCtx{c}, ctxs...)
			}
			w.walk(v.Body, fn, inner)
			return false
		case *ast.AssignStmt:
			w.assign(v, ctxs)
		case *ast.CallExpr:
			if fl := comparatorLit(w.pass, v); fl != nil {
				for _, a := range v.Args {
					if ast.Unparen(a) != fl {
						w.walk(a, fn, ctxs)
					}
				}
				enter(fl.Body, &orderCtx{name: "a sort comparator", pos: fl.Pos()})
				return false
			}
			if w.report {
				w.call(v, ctxs)
			}
		}
		return true
	})
}

// rangeCtx returns the context a range opens: a map range, a range over
// a map-ordered slice, or nil for an ordinary range.
func (w *orderWalk) rangeCtx(rs *ast.RangeStmt, fn *ast.BlockStmt) *orderCtx {
	c := &orderCtx{rs: rs, fn: fn, name: "a map-range body", pos: rs.Pos()}
	if _, isMap := typeUnder(w.pass.TypeOf(rs.X)).(*types.Map); !isMap {
		id, ok := ast.Unparen(rs.X).(*ast.Ident)
		if !ok || w.ordered[w.pass.ObjectOf(id)] == nil {
			return nil
		}
		c.slice, c.name = w.ordered[w.pass.ObjectOf(id)], id.Name
	}
	c.vars = rangeVarObjs(w.pass, rs)
	return c
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

// mark records dest as map-ordered unless it is already marked or is
// sorted after the loop that filled it. Only identifiers are tracked.
func (w *orderWalk) mark(dest ast.Expr, mo *mapOrdered) {
	id, ok := ast.Unparen(dest).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := w.pass.ObjectOf(id)
	if obj == nil || w.ordered[obj] != nil || sortedAfter(w.pass, mo.fn, mo.end, obj) {
		return
	}
	w.ordered[obj] = mo
	w.changed = true
}

func (w *orderWalk) assign(st *ast.AssignStmt, ctxs []*orderCtx) {
	// y := x (or x[i:j]) aliases a map-ordered slice's backing and order.
	if len(st.Lhs) == len(st.Rhs) {
		for i, rhs := range st.Rhs {
			src := ast.Unparen(rhs)
			if se, ok := src.(*ast.SliceExpr); ok {
				src = ast.Unparen(se.X)
			}
			if id, ok := src.(*ast.Ident); ok && w.ordered[w.pass.ObjectOf(id)] != nil {
				w.mark(st.Lhs[i], w.ordered[w.pass.ObjectOf(id)])
			}
		}
	}
	if len(ctxs) == 0 {
		return
	}

	// Appends: x = append(x, ...) in any assignment form.
	for i, rhs := range st.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !w.pass.IsBuiltin(call, "append") || len(call.Args) < 2 {
			continue
		}
		var dest ast.Expr
		if len(st.Lhs) == len(st.Rhs) {
			dest = st.Lhs[i]
		} else if len(st.Lhs) == 1 {
			dest = st.Lhs[0]
		}
		for _, c := range ctxs {
			if c.rs == nil || !w.appendEscapes(c, call, dest) {
				continue
			}
			mo := &mapOrdered{origin: call.Pos(), fn: c.fn, end: c.rs.End()}
			if c.slice != nil {
				mo.origin = c.slice.origin
			}
			w.mark(dest, mo)
			if c.slice == nil {
				if w.report {
					w.pass.Report(call.Pos(),
						"append of range-dependent elements inside map iteration; order follows the map — collect and sort, or sort %s after the loop",
						destName(dest))
				}
				break
			}
		}
	}

	// Float accumulation: x op= expr, or x = x op expr.
	if !w.report {
		return
	}
	lhs := floatAccum(w.pass, st)
	if lhs == nil {
		return
	}
	for _, c := range ctxs {
		if c.rs == nil || keyedBy(w.pass, lhs, c) {
			continue
		}
		if obj := rootObj(w.pass, lhs); obj != nil && declaredWithin(obj, c.rs.Body) {
			continue // accumulator reset every iteration
		}
		if c.slice == nil {
			w.pass.Report(lhs.Pos(),
				"float accumulation into %s inside map iteration; summation order follows the map — iterate sorted keys",
				destName(lhs))
		} else {
			w.pass.ReportRelated(lhs.Pos(), w.originNote(c.slice),
				"float accumulation into %s over %s, whose element order follows a map iteration — sort %s before summing",
				destName(lhs), c.name, c.name)
		}
		return
	}
}

// appendEscapes reports an append, under range context c, of elements
// that depend on the iteration into a slice that outlives the loop and
// is not sorted after it.
func (w *orderWalk) appendEscapes(c *orderCtx, call *ast.CallExpr, dest ast.Expr) bool {
	if !slices.ContainsFunc(call.Args[1:], func(a ast.Expr) bool { return loopDependent(w.pass, a, c) }) {
		return false // loop-invariant elements: content independent of order
	}
	if keyedBy(w.pass, dest, c) {
		return false // m2[k] = append(m2[k], ...): per-key, order-insensitive
	}
	obj := rootObj(w.pass, dest)
	return obj == nil || !declaredWithin(obj, c.rs.Body) && !sortedAfter(w.pass, c.fn, c.rs.End(), obj)
}

// floatAccum returns the float destination of x op= expr or
// x = x op expr, nil for any other assignment or a constant addend.
func floatAccum(pass *Pass, st *ast.AssignStmt) ast.Expr {
	if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
		return nil
	}
	lhs, rhs := st.Lhs[0], st.Rhs[0]
	switch st.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	case token.ASSIGN:
		bin, ok := ast.Unparen(rhs).(*ast.BinaryExpr)
		lobj := rootObj(pass, lhs)
		switch {
		case !ok || lobj == nil || (bin.Op != token.ADD && bin.Op != token.SUB && bin.Op != token.MUL && bin.Op != token.QUO):
			return nil
		case rootObj(pass, bin.X) == lobj:
			rhs = bin.Y
		case rootObj(pass, bin.Y) == lobj:
			rhs = bin.X
		default:
			return nil
		}
	default:
		return nil
	}
	if basic, ok := typeUnder(pass.TypeOf(lhs)).(*types.Basic); !ok || basic.Info()&types.IsFloat == 0 || pass.IsConst(rhs) {
		return nil // integers are exact; adding a constant N times is order-insensitive
	}
	return lhs
}

// call reports order-sensitive calls: a map-ordered slice passed to a
// sum-named function, an RNG draw in the innermost context that counts
// draws, and trace/obs emission in the innermost map range it depends on.
func (w *orderWalk) call(call *ast.CallExpr, ctxs []*orderCtx) {
	if name := calleeName(w.pass, call); sumLikeName(name) {
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && w.ordered[w.pass.ObjectOf(id)] != nil {
				w.pass.ReportRelated(arg.Pos(), w.originNote(w.ordered[w.pass.ObjectOf(id)]),
					"%s, whose element order follows a map iteration, is passed to %s — sort it before reducing",
					id.Name, name)
			}
		}
	}
	fn := w.pass.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	if sig, _ := fn.Type().(*types.Signature); rngConsumers[path][fn.Name()] ||
		(path == "math/rand" || path == "math/rand/v2") && sig != nil && sig.Recv() != nil {
		for _, c := range ctxs {
			if c.slice == nil {
				w.pass.ReportRelated(call.Pos(), []Related{w.pass.Note(c.pos, "%s begins here", c.name)},
					"%s draws from a seeded RNG stream inside %s; execution order decides which call gets which sample — draw outside, or give the context its own RNG",
					types.ExprString(call.Fun), c.name)
				return
			}
		}
	}
	if emissionPkgs[path] {
		for _, c := range ctxs {
			if c.mapRange() && loopDependent(w.pass, call, c) {
				w.pass.Report(call.Pos(),
					"%s.%s inside map iteration; emission order follows the map — iterate sorted keys",
					fn.Pkg().Name(), fn.Name())
				return
			}
		}
	}
}

func (w *orderWalk) originNote(mo *mapOrdered) []Related {
	return []Related{w.pass.Note(mo.origin, "element order set by map iteration here")}
}

// comparatorLit resolves a call to a sort/slices comparator-taking
// entry point and returns its function-literal argument.
func comparatorLit(pass *Pass, call *ast.CallExpr) *ast.FuncLit {
	fn := pass.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil || !comparatorCallees[fn.Name()] {
		return nil
	}
	if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
		return nil
	}
	for _, a := range call.Args {
		if fl, ok := ast.Unparen(a).(*ast.FuncLit); ok {
			return fl
		}
	}
	return nil
}

// sortedAfter reports whether obj is passed to a sort/slices call after
// pos within the function body — the collect-then-sort idiom.
func sortedAfter(pass *Pass, fn *ast.BlockStmt, pos token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if found || !ok || call.Pos() < pos {
			return !found
		}
		if f := pass.CalleeFunc(call); f != nil && f.Pkg() != nil && (f.Pkg().Path() == "sort" || f.Pkg().Path() == "slices") {
			found = slices.ContainsFunc(call.Args, func(a ast.Expr) bool { return mentionsObj(pass, a, obj) })
		}
		return !found
	})
	return found
}

func calleeName(pass *Pass, call *ast.CallExpr) string {
	if fn := pass.CalleeFunc(call); fn != nil {
		return fn.Name()
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// sumLikeName reports names that read as order-sensitive reductions.
func sumLikeName(name string) bool {
	l := strings.ToLower(name)
	switch l {
	case "sum", "total", "mean", "avg", "average":
		return true
	}
	return strings.HasSuffix(l, "sum")
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
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[pass.ObjectOf(id)] {
			found = true
		}
		return !found
	})
	return found
}

func mentionsObj(pass *Pass, e ast.Node, obj types.Object) bool {
	return refersTo(pass, e, map[types.Object]bool{obj: true})
}

// keyedBy reports a write indexed directly by one of c's range
// variables (out[k]). An index merely derived from a range variable
// (m[j.User]) can collide across iterations and does not count.
func keyedBy(pass *Pass, dest ast.Expr, c *orderCtx) bool {
	idx, ok := ast.Unparen(dest).(*ast.IndexExpr)
	return ok && refersTo(pass, idx.Index, c.vars)
}

// loopDependent reports whether the expression mentions a range
// variable of c's loop or any variable declared inside its body
// (derived per-iteration state, e.g. j := m[id] followed by a use of j).
func loopDependent(pass *Pass, e ast.Node, c *orderCtx) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			obj := pass.ObjectOf(id)
			if _, isVar := obj.(*types.Var); c.vars[obj] || isVar && declaredWithin(obj, c.rs.Body) {
				found = true
			}
		}
		return !found
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
