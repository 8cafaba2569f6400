package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Every //gflint: comment has one grammar, a verb and its words:
//
//	//gflint:ignore <check> <one-line justification>
//	//gflint:noretain [note | param names]
//	//gflint:reuses <param>
//
// An ignore suppresses findings of the named check on the same line
// (trailing comment) or on the line directly below (own-line comment
// above the flagged statement). noretain and reuses are annotations
// (annot.go). Any other verb is reported under check "directive".
const directivePrefix = "//gflint:"

// directive is one //gflint: comment.
type directive struct {
	verb     string   // "ignore", "noretain", "reuses", or a misspelling
	args     []string // the words after the verb
	c        *ast.Comment
	pos      token.Position
	attached bool // an annotation bound to a field or a function
}

// readDirectives parses every //gflint: comment of the package's files
// in one scan, registers its annotations, keeps its well-formed
// ignores, and records the rest as problems.
func (p *Package) readDirectives() {
	var dirs []*directive
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, directivePrefix)
				if !ok {
					continue
				}
				d := &directive{c: c, pos: p.Fset.Position(c.Pos())}
				if words := strings.Fields(rest); len(words) > 0 && strings.HasPrefix(rest, words[0]) {
					d.verb, d.args = words[0], words[1:]
				}
				dirs = append(dirs, d)
			}
		}
	}
	p.annot.collectAnnotations(p, dirs)
	for _, d := range dirs {
		var msg string
		switch d.verb {
		case "ignore":
			switch {
			case len(d.args) == 0:
				msg = "suppression directive names no check: want //gflint:ignore <check> <reason>"
			case AnalyzerByName(d.args[0]) == nil:
				msg = "suppression directive names unknown check " + d.args[0]
			case len(d.args) == 1:
				msg = "suppression of " + d.args[0] + " carries no justification"
			default: // it names an analyzer, so no "directive" finding is suppressible
				p.ignores = append(p.ignores, *d)
			}
		case "noretain":
			if !d.attached {
				msg = "gflint:noretain attaches to nothing; put it on a struct field or in a function's doc comment"
			}
		case "reuses":
			if !d.attached {
				msg = "gflint:reuses attaches to nothing; put it in a function's doc comment"
			}
		default:
			msg = "unknown directive gflint:" + d.verb + ": want ignore, noretain or reuses"
		}
		if msg != "" {
			p.problem(d.c.Pos(), msg)
		}
	}
}

// problem records a malformed directive at pos.
func (p *Package) problem(pos token.Pos, msg string) {
	position := p.Fset.Position(pos)
	p.problems = append(p.problems, Diagnostic{
		Check: "directive", File: position.Filename,
		Line: position.Line, Col: position.Column, Message: msg,
	})
}
