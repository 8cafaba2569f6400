package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RetainAnalyzer flags reused backing storage escaping the call: into a
// struct field, package-level variable, closure, channel, or return
// value, without an explicit copy. The next reuse silently rewrites
// whatever the escaped slice points at. Storage counts as reused in two
// ways:
//
//   - under a //gflint:noretain contract (RoundState.Jobs, the engine's
//     scratch buffers, trade.Run's input allocation): taint enters
//     through reads of annotated struct fields, uses of annotated
//     parameters, and calls to functions whose result carries the
//     annotation;
//   - as scratch: a zero-length reslice (buf[:0]) of a struct field
//     (reached through a receiver or parameter) or a package-level
//     variable marks that storage as reused for the whole function that
//     reslices it, annotated or not; so does passing it to a buffer
//     helper whose doc comment declares //gflint:reuses (its result may
//     be the argument's storage).
//
// Taint propagates through local assignments, reslices, composite
// literals, and conversions (see taintEngine). Copies break it: append
// into a fresh slice, the x[:0:0] idiom (which also never marks
// scratch: its appends must reallocate), or any ordinary call result.
//
// Two flows are contracts rather than violations and are exempt: a
// store INTO storage that is itself under contract — an annotated
// field, or the function's own scratch home (the owner refreshing its
// buffer, or a producer handing it to its consumers) — and a return
// from a function whose own doc comment declares //gflint:noretain,
// which passes the obligation to its callers, where this analyzer picks
// it up again.
var RetainAnalyzer = &Analyzer{
	Name: "retain",
	Doc:  "reused storage (a //gflint:noretain contract, or a [:0] scratch reslice of a field or global, or one handed to a //gflint:reuses helper) escaping into fields, globals, closures, channels, or returns without a copy",
	Run:  runRetain,
}

func runRetain(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fnObj, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			t := &taintEngine{
				pass:        pass,
				decl:        fd,
				tainted:     make(map[types.Object]*Annotation),
				allowReturn: fnObj != nil && pass.Pkg.NoRetainResult(fnObj) != nil,
			}
			// Annotated parameters of this function are tainted from entry.
			if fnObj != nil {
				params := fnObj.Type().(*types.Signature).Params()
				for i := 0; i < params.Len(); i++ {
					if a := pass.Pkg.NoRetain(params.At(i)); a != nil {
						t.tainted[params.At(i)] = a
					}
				}
			}
			t.findScratch()
			t.propagate()
			t.findSinks()
		}
	}
}

// findScratch records the function's scratch reslices: zero-length
// reslices of storage that outlives the call, and such storage handed
// to a //gflint:reuses helper, keyed by the storage object (field or
// package-level variable), each annotated at its first reuse site.
func (t *taintEngine) findScratch() {
	ast.Inspect(t.decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.SliceExpr:
			if isZeroLenReslice(t.pass, v) && !isZeroCapReslice(t.pass, v) {
				t.markScratch(v.X, v.Pos(), "[:0]")
			}
		case *ast.CallExpr:
			if arg := t.pass.ReusedArg(v); arg != nil {
				t.markScratch(arg, v.Pos(), t.pass.CalleeFunc(v).Name())
			}
		}
		return true
	})
}

// markScratch records x's storage, reused at pos by how, as scratch if
// it outlives the call and is not recorded yet.
func (t *taintEngine) markScratch(x ast.Expr, pos token.Pos, how string) {
	obj := t.scratchStorage(x)
	if obj == nil || t.scratch[obj] != nil {
		return
	}
	if t.scratch == nil {
		t.scratch = make(map[types.Object]*Annotation)
	}
	t.scratch[obj] = &Annotation{
		Desc: "scratch slice " + destName(x) + ", reused by this function,",
		Pos:  pos,
		note: "backing array reused here (" + how + ")",
	}
}

// isZeroLenReslice reports v[:0] / v[0:0]: the truncation that makes
// later appends overwrite the previous contents in place.
func isZeroLenReslice(pass *Pass, se *ast.SliceExpr) bool {
	isZero := func(e ast.Expr) bool {
		tv, ok := pass.Pkg.Info.Types[e]
		if !ok || tv.Value == nil {
			return false
		}
		v, exact := intConstVal(tv)
		return exact && v == 0
	}
	return se.High != nil && isZero(se.High) && (se.Low == nil || isZero(se.Low))
}

// scratchStorage resolves the resliced expression to storage that
// outlives the call: the field object for x.f rooted at a receiver or
// parameter (or anything unresolvable — conservatively long-lived), or
// a package-level variable. Locals return nil — reslicing a local is
// the caller-owned-buffer pattern (fairshare.Compute's `active[:0]`)
// and the local's escape is its own function's concern.
func (t *taintEngine) scratchStorage(x ast.Expr) types.Object {
	switch v := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		field, ok := t.pass.ObjectOf(v.Sel).(*types.Var)
		if !ok || !field.IsField() {
			return nil
		}
		if root := rootObjThroughSlices(t.pass, v.X); root != nil && t.isBodyLocal(root) {
			return nil
		}
		return field
	case *ast.Ident:
		if obj := t.pass.ObjectOf(v); isPackageLevel(obj) {
			return obj
		}
	}
	return nil
}
