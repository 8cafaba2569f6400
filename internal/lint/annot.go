package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// A //gflint:noretain [note | param names] comment declares a
// retention contract. Placement decides what it annotates:
//
//   - On a struct field (doc comment or trailing line comment): the
//     field's value is not retainable by readers — the owner reuses
//     the backing storage. Any trailing text is a free-form note.
//   - In a function's doc comment with no arguments: the function's
//     RESULT carries the contract — callers must not retain it (the
//     function may return its own internal buffer).
//   - In a function's doc comment with arguments: each argument names
//     a PARAMETER the function must not retain (the caller keeps
//     ownership of the backing storage).
//
// Annotations are collected for every package the loader parses —
// roots and intra-module dependencies alike — into one loader-wide
// registry, so an analyzer checking package B sees the annotations
// declared on package A's types (e.g. core.RoundState.Jobs read from
// internal/baselines). The retain analyzer consumes the registry.
//
// A //gflint:reuses <param> comment, in a function's doc comment,
// passes storage on: the function's result may be the storage of
// parameter <param>, emptied or resliced (a buffer helper such as
// grow-or-truncate). For the retain analyzer a call to it is then what <param>[:0] is: the
// result aliases the argument, and an argument that is a field or a
// package-level variable becomes the calling function's scratch.
//
// annotations is the loader-wide fact registry (lint's first analysis
// pass, built during loading, before any analyzer runs).
type annotations struct {
	// noRetain holds annotated struct fields and function parameters.
	noRetain map[types.Object]*Annotation
	// noRetainFn holds functions whose result is annotated.
	noRetainFn map[*types.Func]*Annotation
	// reuses holds, per //gflint:reuses function, the position of the
	// parameter whose storage its result may be.
	reuses map[*types.Func]int
}

// Annotation is one resolved //gflint:noretain declaration.
type Annotation struct {
	// Desc names the annotated thing for diagnostics, e.g.
	// "core.RoundState.Jobs" or "parameter alloc of trade.Run".
	Desc string
	// Pos is where the annotation's comment sits.
	Pos token.Pos
	// note labels Pos in a finding's related position.
	note string
}

// contractNote labels a //gflint:noretain declaration.
const contractNote = "noretain contract declared here"

func newAnnotations() *annotations {
	return &annotations{
		noRetain:   make(map[types.Object]*Annotation),
		noRetainFn: make(map[*types.Func]*Annotation),
		reuses:     make(map[*types.Func]int),
	}
}

// NoRetain reports the annotation covering an object (struct field or
// function parameter), nil when unannotated.
func (p *Package) NoRetain(obj types.Object) *Annotation {
	if obj == nil || p.annot == nil {
		return nil
	}
	return p.annot.noRetain[obj]
}

// NoRetainResult reports the annotation on a function's result, nil
// when unannotated.
func (p *Package) NoRetainResult(fn *types.Func) *Annotation {
	if fn == nil || p.annot == nil {
		return nil
	}
	return p.annot.noRetainFn[fn]
}

// ReusedArg reports the argument of a call whose storage the call's
// result may be (a //gflint:reuses function), nil for other calls.
func (p *Pass) ReusedArg(call *ast.CallExpr) ast.Expr {
	fn := p.CalleeFunc(call)
	if fn == nil || p.Pkg.annot == nil {
		return nil
	}
	if i, ok := p.Pkg.annot.reuses[fn.Origin()]; ok && i < len(call.Args) {
		return call.Args[i]
	}
	return nil
}

// collectAnnotations resolves the package's noretain and reuses
// directives against its typechecked objects, registers them in the
// loader-wide registry and marks them attached; a malformed one is a
// problem of the package.
func (a *annotations) collectAnnotations(pkg *Package, dirs []*directive) {
	at := make(map[*ast.Comment]*directive, len(dirs))
	for _, d := range dirs {
		if d.verb == "noretain" || d.verb == "reuses" {
			at[d.c] = d
		}
	}
	if len(at) == 0 {
		return
	}
	register := func(obj types.Object, desc string, pos token.Pos) {
		if _, dup := a.noRetain[obj]; !dup {
			a.noRetain[obj] = &Annotation{Desc: desc, Pos: pos, note: contractNote}
		}
	}
	fieldDirective := func(f *ast.Field) *directive {
		for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
			if cg == nil {
				continue
			}
			for _, c := range cg.List {
				if d := at[c]; d != nil && d.verb == "noretain" {
					return d
				}
			}
		}
		return nil
	}

	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.StructType:
				for _, f := range v.Fields.List {
					d := fieldDirective(f)
					if d == nil {
						continue
					}
					d.attached = true
					if len(f.Names) == 0 {
						pkg.problem(d.c.Pos(), "gflint:noretain on an embedded field; name the field explicitly")
						continue
					}
					for _, name := range f.Names {
						if obj := pkg.Info.Defs[name]; obj != nil {
							register(obj, qualifiedField(pkg, obj), d.c.Pos())
						}
					}
				}
			case *ast.FuncDecl:
				if v.Doc == nil {
					return true
				}
				for _, c := range v.Doc.List {
					d := at[c]
					if d == nil {
						continue
					}
					d.attached = true
					fn, _ := pkg.Info.Defs[v.Name].(*types.Func)
					if fn == nil {
						continue
					}
					problem := func(msg string) { pkg.problem(c.Pos(), msg) }
					if d.verb == "reuses" {
						a.collectReuses(fn, d.args, problem)
						continue
					}
					if len(d.args) == 0 {
						if fn.Type().(*types.Signature).Results().Len() == 0 {
							problem("gflint:noretain on " + fn.Name() + ", which returns nothing; name the parameters instead")
							continue
						}
						if _, dup := a.noRetainFn[fn]; !dup {
							a.noRetainFn[fn] = &Annotation{
								Desc: pkg.Types.Name() + "." + fn.Name() + " result",
								Pos:  c.Pos(),
								note: contractNote,
							}
						}
						continue
					}
					params := fn.Type().(*types.Signature).Params()
					byName := make(map[string]*types.Var, params.Len())
					for i := 0; i < params.Len(); i++ {
						byName[params.At(i).Name()] = params.At(i)
					}
					for _, arg := range d.args {
						pv, ok := byName[arg]
						if !ok {
							problem("gflint:noretain names " + arg + ", not a parameter of " + fn.Name())
							continue
						}
						register(pv, "parameter "+arg+" of "+pkg.Types.Name()+"."+fn.Name(), c.Pos())
					}
				}
			}
			return true
		})
	}
}

// collectReuses registers a //gflint:reuses comment on fn: one
// argument, naming a parameter of the same type as fn's one result.
func (a *annotations) collectReuses(fn *types.Func, args []string, problem func(string)) {
	if len(args) != 1 {
		problem("gflint:reuses names one parameter, not " + strconv.Itoa(len(args)))
		return
	}
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		if pv := sig.Params().At(i); pv.Name() == args[0] {
			if sig.Results().Len() != 1 || !types.Identical(sig.Results().At(0).Type(), pv.Type()) {
				problem("gflint:reuses on " + fn.Name() + ", whose one result is not of " + args[0] + "'s type")
				return
			}
			a.reuses[fn] = i
			return
		}
	}
	problem("gflint:reuses names " + args[0] + ", not a parameter of " + fn.Name())
}

// qualifiedField renders a field object as Pkg.Type.Field when the
// owning struct is nameable, falling back to Pkg.Field.
func qualifiedField(pkg *Package, obj types.Object) string {
	name := pkg.Types.Name() + "." + obj.Name()
	// Walk named types for one declaring this field (best effort —
	// purely cosmetic for diagnostics).
	scope := pkg.Types.Scope()
	for _, tn := range scope.Names() {
		named, ok := scope.Lookup(tn).Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == obj {
				return pkg.Types.Name() + "." + tn + "." + obj.Name()
			}
		}
	}
	return name
}
