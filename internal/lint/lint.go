// Package lint is a stdlib-only static-analysis framework for this
// repository's determinism and correctness rules. It picks each
// package's files with go/build, parses and typechecks them with
// go/parser and go/types, reading the standard library from compiler
// export data (no external dependencies, matching the module's
// zero-dependency style), runs a registry of analyzers over them, and
// reports file/line diagnostics.
//
// The analyzers encode the failure modes that have actually bitten
// this codebase, plus the aliasing and concurrency contracts the
// incremental engine depends on:
//
//   - order: order-sensitive work where execution order is not program
//     order — float sums, appends, trace/obs emission and seeded RNG
//     draws inside map ranges, float sums over slices filled in map
//     order, and RNG draws in goroutines and sort comparators;
//   - wallclock: wall-clock reads in simulation logic that must run
//     on virtual time;
//   - globalrand: use of the shared global math/rand RNG;
//   - errdrop: silently discarded error returns;
//   - retain: reused backing storage escaping into fields, globals,
//     closures, channels, or returns — values under a //gflint:noretain
//     contract, and scratch slices a function reuses with [:0] or
//     through a //gflint:reuses buffer helper;
//   - lockhold: locks held across blocking channel operations.
//
// Findings can be suppressed with a directive comment on the flagged
// line or the line directly above it:
//
//	//gflint:ignore <check> <one-line justification>
//
// A directive must name the check and carry a justification; malformed
// directives are themselves reported (check "directive"), as are stale
// directives whose check ran but matched nothing on the covered lines,
// and any //gflint: comment whose verb is not ignore, noretain or
// reuses.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. Run inspects a typechecked package via
// the Pass and reports findings with Pass.Report.
type Analyzer struct {
	// Name identifies the check in output and in suppression
	// directives (e.g. "order").
	Name string
	// Doc is a one-line description shown by gflint -list.
	Doc string
	// Run executes the check over one package.
	Run func(*Pass)
}

// Analyzers returns the built-in analyzer registry in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		OrderAnalyzer,
		WallClockAnalyzer,
		GlobalRandAnalyzer,
		ErrDropAnalyzer,
		RetainAnalyzer,
		LockHoldAnalyzer,
	}
}

// AnalyzerByName resolves one registry entry; nil if unknown.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Related is a secondary position attached to a diagnostic — e.g. the
// declaration site of the //gflint:noretain annotation a retain
// finding enforces, or the Lock() a blocked channel op still holds.
type Related struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// Diagnostic is one finding, located at a concrete file position.
type Diagnostic struct {
	Check   string    `json:"check"`
	File    string    `json:"file"`
	Line    int       `json:"line"`
	Col     int       `json:"col"`
	Message string    `json:"message"`
	Related []Related `json:"related,omitempty"`
}

func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Check, d.Message)
	for _, r := range d.Related {
		fmt.Fprintf(&b, "\n\t%s:%d:%d: %s", r.File, r.Line, r.Col, r.Message)
	}
	return b.String()
}

// key is the comparable identity of a diagnostic, used for
// deduplication (Related carries no identity: two analyses reporting
// the same position and message are the same finding).
type diagKey struct {
	Check   string
	File    string
	Line    int
	Col     int
	Message string
}

func (d Diagnostic) key() diagKey {
	return diagKey{d.Check, d.File, d.Line, d.Col, d.Message}
}

// Pass carries one analyzer's view of one typechecked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	diags *[]Diagnostic
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.ReportRelated(pos, nil, format, args...)
}

// ReportRelated records a finding at pos with secondary positions.
func (p *Pass) ReportRelated(pos token.Pos, related []Related, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Check:   p.Analyzer.Name,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
		Related: related,
	})
}

// Note builds a Related entry for pos.
func (p *Pass) Note(pos token.Pos, format string, args ...any) Related {
	position := p.Fset.Position(pos)
	return Related{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	}
}

// TypeOf returns the type of an expression, nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf returns the object an identifier denotes (uses or defs).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Pkg.Info.ObjectOf(id) }

// IsConst reports whether the expression has a compile-time constant
// value — order-insensitive by definition.
func (p *Pass) IsConst(e ast.Expr) bool {
	tv, ok := p.Pkg.Info.Types[e]
	return ok && tv.Value != nil
}

// CalleeFunc resolves a call expression to the *types.Func it invokes
// (package function or method), or nil for builtins, conversions, and
// indirect calls through function values.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := p.ObjectOf(fun).(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := p.ObjectOf(fun.Sel).(*types.Func); ok {
			return f
		}
	}
	return nil
}

// IsBuiltin reports whether the call invokes the named builtin.
func (p *Pass) IsBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := p.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == name
}

// Run executes the given analyzers over the packages in passes:
//
//  1. every analyzer over every package (annotation facts and
//     malformed //gflint: directives were already collected at load
//     time, before any analyzer ran);
//  2. deduplication, then suppression — recording which ignore
//     directives actually matched a finding;
//  3. stale-directive reporting: a well-formed ignore whose check was
//     among the analyzers that ran but suppressed nothing.
//
// Surviving diagnostics come back in stable (file, line, col, check,
// message) order.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	type fileLine struct {
		file string
		line int
	}
	var diags []Diagnostic
	ignores := make(map[fileLine][]directive)
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, diags: &diags})
		}
		diags = append(diags, pkg.problems...)
		for _, d := range pkg.ignores {
			k := fileLine{d.pos.Filename, d.pos.Line}
			ignores[k] = append(ignores[k], d)
		}
	}

	var out []Diagnostic
	seen := make(map[diagKey]bool, len(diags))
	used := make(map[*ast.Comment]bool)
next:
	for _, d := range diags {
		if seen[d.key()] {
			continue
		}
		seen[d.key()] = true
		for _, line := range []int{d.Line, d.Line - 1} {
			for _, dir := range ignores[fileLine{d.File, line}] {
				if dir.args[0] == d.Check {
					used[dir.c] = true
					continue next
				}
			}
		}
		out = append(out, d)
	}
	// A directive whose check did not run (a -checks subset) is never
	// stale.
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, pkg := range pkgs {
		for _, dir := range pkg.ignores {
			if ran[dir.args[0]] && !used[dir.c] {
				out = append(out, Diagnostic{
					Check: "directive", File: dir.pos.Filename, Line: dir.pos.Line, Col: dir.pos.Column,
					Message: "stale suppression: " + dir.args[0] + " reports nothing here; delete the directive",
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return out
}
