package lint

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and typechecked package, ready for analysis.
type Package struct {
	Path  string // import path, e.g. "repro/internal/fairshare"
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File // files analyzed (in-package test files when Tests)
	Types *types.Package
	Info  *types.Info

	ignores  []directive  // well-formed //gflint:ignore comments
	problems []Diagnostic // malformed //gflint: comments, as check "directive"
	annot    *annotations // loader-wide annotation registry
}

// LoadConfig controls package loading.
type LoadConfig struct {
	// Dir is the module root (must contain go.mod). Empty means the
	// current working directory.
	Dir string
	// Tests adds in-package _test.go files to analysis. External test
	// packages (package foo_test) are never loaded.
	Tests bool
	// Overlay substitutes file contents by absolute path, used by
	// tests to analyze modified sources without touching disk. Which
	// files a package builds is still decided from disk.
	Overlay map[string][]byte
}

// Loader parses and typechecks packages of one module, resolving
// intra-module imports itself and the rest (the standard library)
// from compiler export data. A Loader is not safe for concurrent use;
// separate Loaders are, as each has its own file set and importer.
type Loader struct {
	cfg     LoadConfig
	modPath string
	modDir  string
	fset    *token.FileSet
	std     types.ImporterFrom  // the standard library, from export data
	exports map[string]string   // std's export data files, by import path (listExports)
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // import-cycle guard
	annot   *annotations        // //gflint:noretain facts across all loads
}

// NewLoader builds a loader for the module rooted at cfg.Dir.
func NewLoader(cfg LoadConfig) (*Loader, error) {
	dir := cfg.Dir
	if dir == "" {
		var err error
		if dir, err = os.Getwd(); err != nil {
			return nil, err
		}
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		cfg:     cfg,
		modPath: modPath,
		modDir:  abs,
		fset:    fset,
		exports: make(map[string]string),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
		annot:   newAnnotations(),
	}
	l.std = importer.ForCompiler(fset, "gc", l.openExport).(types.ImporterFrom)
	return l, nil
}

// openExport is the std importer's lookup: the export data listExports
// found for path. An import it did not list is an error, not a search.
func (l *Loader) openExport(path string) (io.ReadCloser, error) {
	file, ok := l.exports[path]
	if !ok {
		return nil, fmt.Errorf("lint: no export data for %s: go/build reported no package importing it", path)
	}
	return os.Open(file)
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// Load resolves the patterns ("./...", "./internal/core", ...) to
// package directories and returns them parsed and typechecked.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	if err := l.listExports(dirs); err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		path, err := l.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := l.load(path, true) // with test files when configured
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	return out, nil
}

// expand turns patterns into a sorted list of package directories.
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
		} else if pat == "..." {
			recursive = true
			pat = "."
		}
		root := pat
		if !filepath.IsAbs(root) {
			root = filepath.Join(l.modDir, root)
		}
		clean := filepath.Clean(root)
		if clean != l.modDir && !strings.HasPrefix(clean, l.modDir+string(filepath.Separator)) {
			return nil, fmt.Errorf("lint: pattern %q leaves module root %s", pat, l.modDir)
		}
		if !recursive {
			if hasGoFiles(clean) {
				add(clean)
			} else {
				return nil, fmt.Errorf("lint: no Go files in %s", clean)
			}
			continue
		}
		err := filepath.WalkDir(clean, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != clean && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// listExports finds the export data of every standard-library package
// the load can import: the imports go/build reports for the packages in
// dirs (their in-package test files' too when configured) and for the
// module's packages those import, transitively, that are not the
// module's. One `go list -export -deps` over those not yet listed finds
// them and what they import, compiling into the build cache what is not
// there yet.
func (l *Loader) listExports(dirs []string) error {
	var paths []string
	seen := make(map[string]bool)
	var walk func(dir string, withTests bool) error
	walk = func(dir string, withTests bool) error {
		bp, err := build.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		imports := bp.Imports
		if withTests {
			imports = append(imports, bp.TestImports...)
		}
		for _, path := range imports {
			if seen[path] {
				continue
			}
			seen[path] = true
			if dep, ok := l.dirOf(path); ok {
				if err := walk(dep, false); err != nil {
					return err
				}
			} else if _, listed := l.exports[path]; !listed && path != "unsafe" {
				paths = append(paths, path)
			}
		}
		return nil
	}
	for _, dir := range dirs {
		if err := walk(dir, l.cfg.Tests); err != nil {
			return err
		}
	}
	if len(paths) == 0 {
		return nil
	}
	sort.Strings(paths)
	goroot := build.Default.GOROOT
	cmd := exec.Command(filepath.Join(goroot, "bin", "go"), append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}, paths...)...)
	cmd.Dir = goroot
	cmd.Env = append(os.Environ(), "PWD="+goroot, "GOROOT="+goroot)
	out, err := cmd.Output()
	if ee := (*exec.ExitError)(nil); errors.As(err, &ee) && len(ee.Stderr) > 0 {
		err = errors.New(string(bytes.TrimSpace(ee.Stderr)))
	}
	if err != nil {
		return fmt.Errorf("lint: go list -export: %w", err)
	}
	for _, line := range strings.Split(string(bytes.TrimSpace(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			l.exports[path] = file
		}
	}
	return nil
}

// dirOf returns the directory of a module package's import path; ok is
// false for a path outside the module.
func (l *Loader) dirOf(path string) (dir string, ok bool) {
	if path == l.modPath {
		return l.modDir, true
	}
	rel, ok := strings.CutPrefix(path, l.modPath+"/")
	if !ok {
		return "", false
	}
	return filepath.Join(l.modDir, filepath.FromSlash(rel)), true
}

// importPathFor maps a module-internal directory to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.modDir, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modPath, nil
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// load parses and typechecks the package at an import path of the
// module, as a root of the analysis (with in-package test files when
// configured) or as a dependency (never with them). It returns nil for
// a directory with no buildable files.
func (l *Loader) load(path string, asRoot bool) (*Package, error) {
	key := path
	if asRoot && l.cfg.Tests {
		key = path + " [test]"
	}
	if pkg, ok := l.pkgs[key]; ok {
		return pkg, nil
	}
	if l.loading[key] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[key] = true
	defer delete(l.loading, key)

	dir, ok := l.dirOf(path)
	if !ok {
		return nil, fmt.Errorf("lint: %s is outside module %s", path, l.modPath)
	}

	files, err := l.parseDir(dir, asRoot && l.cfg.Tests)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, nil
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: moduleImporter{l},
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: typecheck %s: %v", path, typeErrs[0])
	}

	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info, annot: l.annot}
	// Annotations are collected for dependencies too, so analyzers on
	// root packages see contracts declared by the packages they import.
	// A package loaded both as dep and as root-with-tests contributes
	// twice (two object sets).
	pkg.readDirectives()
	l.pkgs[key] = pkg
	return pkg, nil
}

// parseDir parses the files go/build selects in dir for the current
// build context: the package's own files plus, when withTests, its
// in-package _test.go files.
func (l *Loader) parseDir(dir string, withTests bool) ([]*ast.File, error) {
	bp, err := build.ImportDir(dir, 0)
	if _, ok := err.(*build.NoGoError); ok {
		return nil, nil
	} else if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	names := bp.GoFiles
	if withTests {
		names = append(names, bp.TestGoFiles...)
		sort.Strings(names)
	}
	var files []*ast.File
	for _, name := range names {
		full := filepath.Join(dir, name)
		var src any
		if data, ok := l.cfg.Overlay[full]; ok {
			src = data
		}
		f, err := parser.ParseFile(l.fset, full, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// moduleImporter resolves intra-module imports through the Loader and
// everything else (stdlib) through its export-data importer.
type moduleImporter struct{ l *Loader }

func (m moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == m.l.modPath || strings.HasPrefix(path, m.l.modPath+"/") {
		pkg, err := m.l.load(path, false)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: no Go files for import %s", path)
		}
		return pkg.Types, nil
	}
	return m.l.std.ImportFrom(path, dir, mode)
}
