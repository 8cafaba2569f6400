package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// noRetainPrefix introduces a retention-contract annotation:
//
//	//gflint:noretain [note | param names]
//
// Placement decides what it annotates:
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
const noRetainPrefix = "//gflint:noretain"

// reusesPrefix introduces a storage-passing annotation, in a function's
// doc comment:
//
//	//gflint:reuses <param>
//
// The function's result may be the storage of parameter <param>,
// emptied or resliced (a buffer helper such as grow-or-truncate). For
// the retain analyzer a call to it is then what <param>[:0] is: the
// result aliases the argument, and an argument that is a field or a
// package-level variable becomes the calling function's scratch.
const reusesPrefix = "//gflint:reuses"

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
	// problems are malformed annotations, reported under check
	// "directive" for the package that declares them.
	problems map[string][]Diagnostic // by package import path
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
		problems:   make(map[string][]Diagnostic),
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

// reusesComment extracts the argument list of a reuses comment, or
// ok=false for other comments.
func reusesComment(c *ast.Comment) (args []string, ok bool) {
	text := strings.TrimSpace(c.Text)
	if !strings.HasPrefix(text, reusesPrefix) {
		return nil, false
	}
	rest := text[len(reusesPrefix):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, false
	}
	return strings.Fields(rest), true
}

// noRetainComment extracts the argument list of a noretain comment, or
// ok=false for other comments.
func noRetainComment(c *ast.Comment) (args []string, ok bool) {
	text := strings.TrimSpace(c.Text)
	if !strings.HasPrefix(text, noRetainPrefix) {
		return nil, false
	}
	rest := text[len(noRetainPrefix):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, false // e.g. //gflint:noretainx
	}
	return strings.Fields(rest), true
}

// collectAnnotations resolves every //gflint:noretain comment in the
// package's files against its typechecked objects and registers the
// results in the loader-wide registry. Malformed annotations become
// "directive" problems attached to the package.
func (a *annotations) collectAnnotations(pkg *Package) {
	fset := pkg.Fset
	consumed := make(map[*ast.Comment]bool)
	problem := func(pos token.Pos, msg string) {
		position := fset.Position(pos)
		a.problems[pkg.Path] = append(a.problems[pkg.Path], Diagnostic{
			Check: "directive", File: position.Filename,
			Line: position.Line, Col: position.Column, Message: msg,
		})
	}

	register := func(obj types.Object, desc string, pos token.Pos) {
		if _, dup := a.noRetain[obj]; !dup {
			a.noRetain[obj] = &Annotation{Desc: desc, Pos: pos, note: contractNote}
		}
	}

	fieldComment := func(f *ast.Field) *ast.Comment {
		for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
			if cg == nil {
				continue
			}
			for _, c := range cg.List {
				if _, ok := noRetainComment(c); ok {
					return c
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
					c := fieldComment(f)
					if c == nil {
						continue
					}
					consumed[c] = true
					names := f.Names
					if len(names) == 0 {
						problem(c.Pos(), "gflint:noretain on an embedded field; name the field explicitly")
						continue
					}
					for _, name := range names {
						obj := pkg.Info.Defs[name]
						if obj == nil {
							continue
						}
						register(obj, qualifiedField(pkg, obj), c.Pos())
					}
				}
			case *ast.FuncDecl:
				if v.Doc == nil {
					return true
				}
				for _, c := range v.Doc.List {
					if args, ok := reusesComment(c); ok {
						consumed[c] = true
						a.collectReuses(pkg, v, args, func(msg string) { problem(c.Pos(), msg) })
						continue
					}
					args, ok := noRetainComment(c)
					if !ok {
						continue
					}
					consumed[c] = true
					fn, _ := pkg.Info.Defs[v.Name].(*types.Func)
					if fn == nil {
						continue
					}
					if len(args) == 0 {
						if fn.Type().(*types.Signature).Results().Len() == 0 {
							problem(c.Pos(), "gflint:noretain on "+fn.Name()+", which returns nothing; name the parameters instead")
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
					for _, arg := range args {
						pv, ok := byName[arg]
						if !ok {
							problem(c.Pos(), "gflint:noretain names "+arg+", not a parameter of "+fn.Name())
							continue
						}
						register(pv, "parameter "+arg+" of "+pkg.Types.Name()+"."+fn.Name(), c.Pos())
					}
				}
			}
			return true
		})
	}

	// A noretain comment that attached to neither a struct field nor a
	// function doc silently does nothing; make that loud.
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if _, ok := noRetainComment(c); ok && !consumed[c] {
					problem(c.Pos(), "gflint:noretain attaches to nothing; put it on a struct field or in a function's doc comment")
				}
				if _, ok := reusesComment(c); ok && !consumed[c] {
					problem(c.Pos(), "gflint:reuses attaches to nothing; put it in a function's doc comment")
				}
			}
		}
	}
}

// collectReuses registers a //gflint:reuses comment on fd: one
// argument, naming a parameter of the same type as fd's one result.
func (a *annotations) collectReuses(pkg *Package, fd *ast.FuncDecl, args []string, problem func(string)) {
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return
	}
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
