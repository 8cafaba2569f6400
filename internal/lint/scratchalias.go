package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ScratchAliasAnalyzer flags the append-to-shared-backing hazard: a
// function that reuses a scratch slice — reslicing a struct field or
// package-level variable to zero length (buf[:0]) so later appends
// overwrite the old contents — while also letting a view of that
// backing array escape the call. The next reuse silently rewrites
// whatever the escaped slice points at; this is exactly the corruption
// mode the incremental engine's per-round buffers would hit with a
// retaining caller.
//
// Detection is two-step: every v[:0] whose root is a struct field
// (reached through a receiver or parameter) or a package-level
// variable marks that storage as scratch for the whole function; then
// the shared taint engine tracks every read of that storage and
// reports escapes. Storing back into a scratch field (s.buf = buf, the
// owner's refresh) is the expected idiom and exempt, as is returning
// from a function whose doc carries //gflint:noretain (the contract is
// passed to callers, where the retain analyzer enforces it). The
// v[:0:0] three-index form caps capacity at zero, forcing append to
// reallocate — that is a copy, not reuse, and never marks scratch.
var ScratchAliasAnalyzer = &Analyzer{
	Name: "scratchalias",
	Doc:  "scratch-slice reuse ([:0] on a field or global) in a function that also lets an alias of the backing array escape",
	Run:  runScratchAlias,
}

func runScratchAlias(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkScratchFunc(pass, fd)
		}
	}
}

// scratchSites finds the function's scratch reslices: zero-length
// reslices of storage that outlives the call. Keyed by the storage
// object (field or package-level var); the annotation points at the
// first reslice site.
func scratchSites(pass *Pass, fd *ast.FuncDecl) map[types.Object]*Annotation {
	sites := make(map[types.Object]*Annotation)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		se, ok := n.(*ast.SliceExpr)
		if !ok || !isZeroLenReslice(pass, se) || isZeroCapReslice(pass, se) {
			return true
		}
		obj := scratchStorageObj(pass, fd, se.X)
		if obj == nil {
			return true
		}
		if _, dup := sites[obj]; !dup {
			sites[obj] = &Annotation{
				Desc: "scratch slice " + destName(se.X),
				Pos:  se.Pos(),
			}
		}
		return true
	})
	return sites
}

// isZeroLenReslice reports v[:0] / v[0:0]: the truncation that makes
// later appends overwrite the previous contents in place.
func isZeroLenReslice(pass *Pass, se *ast.SliceExpr) bool {
	if se.High == nil {
		return false
	}
	tv, ok := pass.Pkg.Info.Types[se.High]
	if !ok || tv.Value == nil {
		return false
	}
	if high, exact := intConstVal(tv); !exact || high != 0 {
		return false
	}
	if se.Low == nil {
		return true
	}
	ltv, ok := pass.Pkg.Info.Types[se.Low]
	if !ok || ltv.Value == nil {
		return false
	}
	low, exact := intConstVal(ltv)
	return exact && low == 0
}

// scratchStorageObj resolves the resliced expression to storage that
// outlives the call: the field object for x.f rooted at a receiver or
// parameter (or anything unresolvable — conservatively long-lived), or
// a package-level variable. Locals return nil — reslicing a local is
// the caller-owned-buffer pattern (fairshare.Compute's `active[:0]`)
// and the local's escape is its own function's concern.
func scratchStorageObj(pass *Pass, fd *ast.FuncDecl, x ast.Expr) types.Object {
	switch v := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		field, ok := pass.ObjectOf(v.Sel).(*types.Var)
		if !ok || !field.IsField() {
			return nil
		}
		if root := rootObjThroughSlices(pass, v.X); root != nil && bodyLocalOf(fd, root) {
			return nil
		}
		return field
	case *ast.Ident:
		if obj := pass.ObjectOf(v); isPackageLevel(obj) {
			return obj
		}
	}
	return nil
}

// bodyLocalOf reports a variable declared inside the function body.
func bodyLocalOf(fd *ast.FuncDecl, obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || isPackageLevel(v) {
		return false
	}
	return declaredWithin(v, fd.Body)
}

func checkScratchFunc(pass *Pass, fd *ast.FuncDecl) {
	sites := scratchSites(pass, fd)
	if len(sites) == 0 {
		return
	}
	fnObj, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func)

	t := &taintEngine{
		pass:    pass,
		decl:    fd,
		tainted: make(map[types.Object]*Annotation),
		source: func(e ast.Expr) *Annotation {
			switch v := e.(type) {
			case *ast.SelectorExpr:
				return sites[pass.ObjectOf(v.Sel)]
			case *ast.Ident:
				return sites[pass.ObjectOf(v)]
			}
			return nil
		},
		exemptStore: func(target ast.Expr) bool {
			// The owner's refresh: storing the (possibly regrown)
			// buffer back into its scratch home.
			switch v := ast.Unparen(target).(type) {
			case *ast.SelectorExpr:
				return sites[pass.ObjectOf(v.Sel)] != nil
			case *ast.Ident:
				return sites[pass.ObjectOf(v)] != nil
			}
			return false
		},
		allowReturn: fnObj != nil && pass.Pkg.NoRetainResult(fnObj) != nil,
	}
	t.sink = func(pos token.Pos, action string, a *Annotation) {
		pass.ReportRelated(pos,
			[]Related{pass.Note(a.Pos, "backing array reused here ([:0])")},
			"%s escapes — %s — while this function reuses its backing array; copy before it escapes",
			a.Desc, action)
	}
	t.run()
}
