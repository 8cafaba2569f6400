package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// The standard library is type-checked from source once per process:
// every Loader parses into sharedFset and imports non-module packages
// through std, whose cache the source importer keeps. stdMu serializes
// std, which is not safe for concurrent use; sharedFset is.
var (
	sharedFset = token.NewFileSet()
	std        = importer.ForCompiler(sharedFset, "source", nil).(types.ImporterFrom)
	stdMu      sync.Mutex
)

// Package is one parsed and typechecked package, ready for analysis.
type Package struct {
	Path  string // import path, e.g. "repro/internal/fairshare"
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File // files analyzed (in-package test files when Tests)
	Types *types.Package
	Info  *types.Info

	directives map[string]map[int][]Directive // file → line → directives
	annot      *annotations                   // loader-wide annotation registry
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
	// tests to analyze modified sources without touching disk.
	Overlay map[string][]byte
}

// Loader parses and typechecks packages of one module, resolving
// intra-module imports itself and delegating the rest (stdlib) to the
// process-wide source importer. A Loader is not safe for concurrent
// use; separate Loaders are.
type Loader struct {
	cfg     LoadConfig
	modPath string
	modDir  string
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
	return &Loader{
		cfg:     cfg,
		modPath: modPath,
		modDir:  abs,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
		annot:   newAnnotations(),
	}, nil
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
	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
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

// loadDir loads the package in dir for analysis (with test files when
// configured). Returns nil for directories with no buildable files.
func (l *Loader) loadDir(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	return l.load(path, true)
}

// importPkg satisfies intra-module imports during typechecking;
// dependencies never include test files.
func (l *Loader) importPkg(path string) (*Package, error) {
	return l.load(path, false)
}

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

	dir := l.modDir
	if path != l.modPath {
		rel, ok := strings.CutPrefix(path, l.modPath+"/")
		if !ok {
			return nil, fmt.Errorf("lint: %s is outside module %s", path, l.modPath)
		}
		dir = filepath.Join(l.modDir, filepath.FromSlash(rel))
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
	tpkg, _ := conf.Check(path, sharedFset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: typecheck %s: %v", path, typeErrs[0])
	}

	pkg := &Package{
		Path:       path,
		Dir:        dir,
		Fset:       sharedFset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		directives: collectDirectives(sharedFset, files),
		annot:      l.annot,
	}
	// Annotations are collected for dependencies too, so analyzers on
	// root packages see contracts declared by the packages they import.
	// A package loaded both as dep and as root-with-tests contributes
	// twice (two object sets); duplicate problems collapse in Run.
	l.annot.collectAnnotations(pkg)
	l.pkgs[key] = pkg
	return pkg, nil
}

// parseDir parses the directory's buildable files: the package's own
// files plus, when withTests, its in-package _test.go files. External
// test packages (package foo_test) are skipped, as are files excluded
// from the current build context by //go:build constraints or _GOOS
// filename suffixes (otherwise e.g. a signal_unix.go/signal_other.go
// pair typechecks as a duplicate declaration).
func (l *Loader) parseDir(dir string, withTests bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") && !withTests {
			continue
		}
		if match, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", filepath.Join(dir, name), err)
		} else if !match {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)

	var files []*ast.File
	pkgName := ""
	for _, name := range names {
		full := filepath.Join(dir, name)
		var src any
		if data, ok := l.cfg.Overlay[full]; ok {
			src = data
		}
		f, err := parser.ParseFile(sharedFset, full, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if strings.HasSuffix(name, "_test.go") && strings.HasSuffix(f.Name.Name, "_test") {
			continue // external test package
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		} else if f.Name.Name != pkgName && !strings.HasSuffix(f.Name.Name, "_test") {
			return nil, fmt.Errorf("lint: %s: package %s conflicts with %s", full, f.Name.Name, pkgName)
		}
		files = append(files, f)
	}
	return files, nil
}

// moduleImporter resolves intra-module imports through the Loader and
// everything else (stdlib) through the source importer.
type moduleImporter struct{ l *Loader }

func (m moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == m.l.modPath || strings.HasPrefix(path, m.l.modPath+"/") {
		pkg, err := m.l.importPkg(path)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: no Go files for import %s", path)
		}
		return pkg.Types, nil
	}
	stdMu.Lock()
	defer stdMu.Unlock()
	return std.ImportFrom(path, dir, mode)
}
