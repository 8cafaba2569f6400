package lint

import (
	"bytes"
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// docFiles are the documents whose backticked Go names must resolve.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// deletedMarker, in the sentence of a name that does not resolve, says
// the document names it on purpose: a name that is gone, or that was
// never there.
const deletedMarker = "(deleted)"

// docName is a backticked `pkg.Name` or `Type.Member`, a call's
// parentheses allowed.
var docName = regexp.MustCompile("`([A-Za-z][A-Za-z0-9]*)\\.([A-Za-z][A-Za-z0-9]*)(?:\\(\\))?`")

// fileExts are the second halves of backticked file names, which
// docName matches too.
var fileExts = map[string]bool{"go": true, "md": true, "json": true}

// nameIndex is what a document's names resolve against: every package
// and package-level type of a load by name — the module's packages as
// the loader holds them, and the standard library's the load imports.
type nameIndex struct {
	pkgs  map[string][]*types.Package
	types map[string][]*types.TypeName
}

func newNameIndex(l *Loader) *nameIndex {
	ix := &nameIndex{pkgs: make(map[string][]*types.Package), types: make(map[string][]*types.TypeName)}
	seen := make(map[*types.Package]bool)
	var add func(p *types.Package)
	add = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		ix.pkgs[p.Name()] = append(ix.pkgs[p.Name()], p)
		sc := p.Scope()
		for _, name := range sc.Names() {
			if tn, ok := sc.Lookup(name).(*types.TypeName); ok {
				ix.types[name] = append(ix.types[name], tn)
			}
		}
		for _, imp := range p.Imports() {
			// A module package comes from the loader's table only: an
			// import of one may be a copy the loader has since replaced.
			if _, inModule := l.dirOf(imp.Path()); !inModule {
				add(imp)
			}
		}
	}
	for _, pkg := range l.pkgs {
		add(pkg.Types)
	}
	return ix
}

// resolve reports whether qual.member names something: a package-level
// name of a package named qual, or a field or method of a type named
// qual. checked is false for a lowercase qual that is neither — a
// variable, which the index cannot see; a capitalized one has to be a
// type.
func (ix *nameIndex) resolve(qual, member string) (ok, checked bool) {
	for _, p := range ix.pkgs[qual] {
		checked = true
		if p.Scope().Lookup(member) != nil {
			return true, true
		}
	}
	for _, tn := range ix.types[qual] {
		checked = true
		if obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, tn.Pkg(), member); obj != nil {
			return true, true
		}
	}
	return false, checked || unicode.IsUpper(rune(qual[0]))
}

// unresolvedDocNames checks every backticked name of the documents, by
// repository-relative path, against the loader's packages: one
// diagnostic, check "docname", at each name that resolves to nothing
// and whose sentence does not carry deletedMarker.
func unresolvedDocNames(t *testing.T, l *Loader, docs ...string) []Diagnostic {
	t.Helper()
	ix := newNameIndex(l)
	var out []Diagnostic
	for _, doc := range docs {
		file := filepath.Join(l.modDir, doc)
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docName.FindAllSubmatchIndex(src, -1) {
			qual, member := string(src[m[2]:m[3]]), string(src[m[4]:m[5]])
			if fileExts[member] {
				continue
			}
			if ok, checked := ix.resolve(qual, member); ok || !checked {
				continue
			}
			if bytes.Contains(sentence(src, m[0], m[1]), []byte(deletedMarker)) {
				continue
			}
			line := 1 + bytes.Count(src[:m[0]], []byte("\n"))
			col := m[0] - bytes.LastIndexByte(src[:m[0]], '\n')
			out = append(out, Diagnostic{Check: "docname", File: file, Line: line, Col: col,
				Message: fmt.Sprintf("%s names nothing in the load; fix it, or mark its sentence %s", src[m[0]:m[1]], deletedMarker)})
		}
	}
	return out
}

// sentence returns the sentence of src around src[lo:hi]: back to the
// end of the one before and on to its own end — a '.', '!' or '?'
// before white space, or a blank line.
func sentence(src []byte, lo, hi int) []byte {
	ends := func(i int) bool { // a sentence ends at src[i]
		if i+1 >= len(src) {
			return true
		}
		switch src[i] {
		case '.', '!', '?':
			return unicode.IsSpace(rune(src[i+1]))
		case '\n':
			return src[i+1] == '\n'
		}
		return false
	}
	for lo > 0 && !ends(lo-1) {
		lo--
	}
	for hi < len(src) && !ends(hi) {
		hi++
	}
	return src[lo:min(hi+1, len(src))]
}

// TestDocNamesResolve holds the documents to the code: every backticked
// `pkg.Name` and `Type.Member` in README.md, DESIGN.md and
// EXPERIMENTS.md must name a package-level name, field or method of the
// module or of the standard library it imports, or its sentence must
// say it is gone on purpose with deletedMarker. (A lowercase qualifier
// that is neither a package nor a type is a variable and is not
// checked.) TestMutationDeletedGuardsAreCaught's docname row renames an
// exported function and requires the finding at the document's line.
func TestDocNamesResolve(t *testing.T) {
	loadRealModule(t)
	var b strings.Builder
	for _, d := range unresolvedDocNames(t, realModule.loader, docFiles...) {
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	if b.Len() > 0 {
		t.Errorf("documents name what the code does not have:\n%s", b.String())
	}
}
