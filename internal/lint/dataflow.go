package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// taintEngine is the retain analyzer's intra-procedural escape
// analysis over one function. It is flow-insensitive: a local that ever
// aliases a protected value is treated as aliasing it for the whole
// function (reassignment does not clear taint — cheap, and safe in the
// conservative direction).
//
// Taint enters through source (annotated fields, noretain-result calls,
// the function's scratch storage) and annotated parameters, and
// propagates through assignments, reslices, address-of, conversions,
// append-to-tainted, composite literals, and closure captures. It does
// NOT propagate through element reads (x[i]) — the contracts protect
// the backing array, not the elements — nor through ordinary calls
// (callees are trusted; their own bodies are analyzed separately).
//
// Sinks are the ways a value outlives the call: stores to
// package-level variables or to fields/elements rooted outside the
// function's locals, channel sends, returns, and goroutine handoffs.
// Two escapes are deliberately not sinks: a plain call argument (the
// callee's contract is its own analysis) and a deferred call (it runs
// before the frame dies).
type taintEngine struct {
	pass *Pass
	decl *ast.FuncDecl
	// scratch holds the storage this function reuses with [:0].
	scratch map[types.Object]*Annotation
	// allowReturn permits returning tainted values — set when the
	// function's own //gflint:noretain result annotation passes the
	// contract on to its callers.
	allowReturn bool

	tainted map[types.Object]*Annotation
}

// source classifies an expression as directly tainted, nil when not.
func (t *taintEngine) source(e ast.Expr) *Annotation {
	switch v := e.(type) {
	case *ast.SelectorExpr:
		obj := t.pass.ObjectOf(v.Sel)
		if a := t.pass.Pkg.NoRetain(obj); a != nil {
			return a
		}
		return t.scratch[obj]
	case *ast.Ident:
		return t.scratch[t.pass.ObjectOf(v)]
	case *ast.CallExpr:
		return t.pass.Pkg.NoRetainResult(t.pass.CalleeFunc(v))
	}
	return nil
}

// sink reports one escape: the position, a past-tense action ("stored
// in ...", "returned to the caller"), and the origin.
func (t *taintEngine) sink(pos token.Pos, action string, a *Annotation) {
	t.pass.ReportRelated(pos, []Related{t.pass.Note(a.Pos, "%s", a.note)},
		"%s must not be retained, but is %s — copy it first", a.Desc, action)
}

// taintOf resolves the origin an expression's value aliases, nil when
// it is clean.
func (t *taintEngine) taintOf(e ast.Expr) *Annotation {
	if e == nil {
		return nil
	}
	e = ast.Unparen(e)
	if a := t.source(e); a != nil {
		return a
	}
	switch v := e.(type) {
	case *ast.Ident:
		if obj := t.pass.ObjectOf(v); obj != nil {
			return t.tainted[obj]
		}
	case *ast.SelectorExpr:
		// Annotated fields are the source classifier's job; beyond
		// that, a field of a tainted composite shares its storage.
		return t.taintOf(v.X)
	case *ast.SliceExpr:
		if isZeroCapReslice(t.pass, v) {
			return nil // x[:0:0]: append must reallocate — the copy idiom
		}
		return t.taintOf(v.X)
	case *ast.StarExpr:
		return t.taintOf(v.X)
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return t.taintOf(v.X)
		}
	case *ast.IndexExpr:
		return nil // element access: the contract covers the backing array
	case *ast.CallExpr:
		if arg := t.pass.ReusedArg(v); arg != nil {
			return t.taintOf(arg) // the result may be the argument's storage
		}
		if t.pass.IsBuiltin(v, "append") && len(v.Args) > 0 {
			// The result shares the destination's backing array. A
			// tainted source spread into a clean destination copies
			// elements and stays clean.
			return t.taintOf(v.Args[0])
		}
		if tv, ok := t.pass.Pkg.Info.Types[v.Fun]; ok && tv.IsType() && len(v.Args) == 1 {
			return t.taintOf(v.Args[0]) // conversion keeps the backing array
		}
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if a := t.taintOf(el); a != nil {
				return a
			}
		}
	case *ast.FuncLit:
		return t.captures(v)
	}
	return nil
}

// captures resolves the origin a function literal closes over, nil
// when its body touches no tainted value.
func (t *taintEngine) captures(fl *ast.FuncLit) *Annotation {
	var found *Annotation
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if e, ok := n.(ast.Expr); ok {
			if a := t.source(e); a != nil {
				found = a
				return false
			}
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := t.pass.ObjectOf(id); obj != nil {
				if a := t.tainted[obj]; a != nil {
					found = a
					return false
				}
			}
		}
		return true
	})
	return found
}

// propagate runs the alias fixpoint over assignments and var
// declarations. The tainted set only grows, so this terminates.
func (t *taintEngine) propagate() {
	for {
		changed := false
		ast.Inspect(t.decl.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) == len(st.Rhs) {
					for i := range st.Lhs {
						if t.assign(st.Lhs[i], st.Rhs[i]) {
							changed = true
						}
					}
				} else if len(st.Rhs) == 1 {
					// a, b := f() — a tainted single source (e.g. a
					// noretain-result call) taints every destination.
					if t.taintOf(st.Rhs[0]) != nil {
						for _, l := range st.Lhs {
							if t.assign(l, st.Rhs[0]) {
								changed = true
							}
						}
					}
				}
			case *ast.ValueSpec:
				for i, name := range st.Names {
					if i < len(st.Values) && t.assign(name, st.Values[i]) {
						changed = true
					}
				}
			}
			return true
		})
		if !changed {
			return
		}
	}
}

// assign records taint flowing into an assignable destination:
// directly for a local identifier, and by tainting the root local for
// keyed or field stores into locally-rooted composites (m[k] = v,
// x.f = v). Stores rooted outside the function are sinks, handled by
// findSinks, not here.
func (t *taintEngine) assign(lhs, rhs ast.Expr) bool {
	a := t.taintOf(rhs)
	if a == nil {
		return false
	}
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return false
		}
		obj := t.pass.ObjectOf(id)
		if obj == nil || isPackageLevel(obj) {
			return false
		}
		if t.tainted[obj] == nil {
			t.tainted[obj] = a
			return true
		}
		return false
	}
	if root := rootObjThroughSlices(t.pass, lhs); root != nil && t.isBodyLocal(root) {
		if t.tainted[root] == nil {
			t.tainted[root] = a
			return true
		}
	}
	return false
}

// findSinks walks the body reporting escapes of tainted values.
// Return statements inside nested function literals are skipped (the
// literal itself escaping is what matters, and is tracked as a value);
// every other sink kind counts regardless of nesting.
func (t *taintEngine) findSinks() {
	var walk func(n ast.Node, inLit bool)
	walk = func(n ast.Node, inLit bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			if fl, ok := m.(*ast.FuncLit); ok && m != n {
				walk(fl.Body, true)
				return false
			}
			switch st := m.(type) {
			case *ast.AssignStmt:
				t.assignSinks(st)
			case *ast.SendStmt:
				if a := t.taintOf(st.Value); a != nil {
					t.sink(st.Value.Pos(), "sent on a channel", a)
				}
			case *ast.ReturnStmt:
				if inLit || t.allowReturn {
					break
				}
				for _, r := range st.Results {
					if a := t.taintOf(r); a != nil {
						t.sink(r.Pos(), "returned to the caller", a)
					}
				}
				if len(st.Results) == 0 {
					t.namedResultSinks(st)
				}
			case *ast.GoStmt:
				if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
					if a := t.captures(fl); a != nil {
						t.sink(st.Pos(), "captured by a spawned goroutine", a)
					}
				}
				for _, arg := range st.Call.Args {
					if a := t.taintOf(arg); a != nil {
						t.sink(arg.Pos(), "handed to a spawned goroutine", a)
					}
				}
			}
			return true
		})
	}
	walk(t.decl.Body, false)
}

// assignSinks flags tainted values stored where they outlive the
// call: package-level variables, or fields/elements whose root is a
// parameter, receiver, global, or unresolvable expression. Stores
// rooted at body locals were folded into the fixpoint instead.
func (t *taintEngine) assignSinks(st *ast.AssignStmt) {
	report := func(lhs, rhs ast.Expr) {
		a := t.taintOf(rhs)
		if a == nil {
			return
		}
		lhs = ast.Unparen(lhs)
		if t.source(lhs) != nil {
			return // a store into storage under contract: the owner's refresh
		}
		if id, ok := lhs.(*ast.Ident); ok {
			if obj := t.pass.ObjectOf(id); obj != nil && isPackageLevel(obj) {
				t.sink(lhs.Pos(), "stored in package-level variable "+id.Name, a)
			}
			return
		}
		root := rootObjThroughSlices(t.pass, lhs)
		if root != nil && t.isBodyLocal(root) {
			return // tainted the root instead (fixpoint)
		}
		t.sink(lhs.Pos(), "stored in "+destName(lhs)+", which outlives the call", a)
	}
	if len(st.Lhs) == len(st.Rhs) {
		for i := range st.Lhs {
			report(st.Lhs[i], st.Rhs[i])
		}
	} else if len(st.Rhs) == 1 {
		for _, l := range st.Lhs {
			report(l, st.Rhs[0])
		}
	}
}

// namedResultSinks handles a naked return in a function with named
// results: any tainted named result escapes.
func (t *taintEngine) namedResultSinks(ret *ast.ReturnStmt) {
	if t.decl.Type.Results == nil {
		return
	}
	for _, f := range t.decl.Type.Results.List {
		for _, name := range f.Names {
			obj := t.pass.ObjectOf(name)
			if obj == nil {
				continue
			}
			if a := t.tainted[obj]; a != nil {
				t.sink(ret.Pos(), "returned to the caller (named result "+name.Name+")", a)
			}
		}
	}
}

// isBodyLocal reports whether the object is a variable declared inside
// the function body — not a parameter, receiver, named result, or
// package-level variable. Stores into composites rooted at body locals
// stay inside the frame unless the local itself escapes.
func (t *taintEngine) isBodyLocal(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || isPackageLevel(v) {
		return false
	}
	return declaredWithin(v, t.decl.Body)
}

func isPackageLevel(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// rootObjThroughSlices is rootObj extended to look through slice
// expressions (x[i:j].f roots at x).
func rootObjThroughSlices(pass *Pass, e ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = v.X
		default:
			return rootObj(pass, e)
		}
	}
}

// isZeroCapReslice reports the x[:0:0] idiom: a zero-length,
// zero-capacity view whose every append reallocates — the standard
// copy-on-append guarantee, treated as fresh storage.
func isZeroCapReslice(pass *Pass, se *ast.SliceExpr) bool {
	if !se.Slice3 || se.Max == nil {
		return false
	}
	tv, ok := pass.Pkg.Info.Types[se.Max]
	if !ok || tv.Value == nil {
		return false
	}
	max, exact := intConstVal(tv)
	return exact && max == 0
}

// intConstVal extracts an exact int64 from a constant expression
// value; ok is false for non-integer or out-of-range constants.
func intConstVal(tv types.TypeAndValue) (int64, bool) {
	return constant.Int64Val(constant.ToInt(tv.Value))
}
