package lint

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// fixtureDir is the corpus module analyzed by the golden test.
func fixtureDir(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// repoRoot is the real module, target of the mutation tests.
func repoRoot(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

func runOver(t *testing.T, cfg LoadConfig, patterns ...string) []Diagnostic {
	t.Helper()
	loader, err := NewLoader(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		t.Fatal(err)
	}
	return Run(pkgs, Analyzers())
}

// TestLoaderRespectsBuildConstraints pins the loader's build-tag
// filtering: internal/tagpair declares the same function in a
// //go:build unix file and a //go:build !unix file, so loading it
// only typechecks if exactly one of the pair is selected.
func TestLoaderRespectsBuildConstraints(t *testing.T) {
	loader, err := NewLoader(LoadConfig{Dir: fixtureDir(t)})
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./internal/tagpair")
	if err != nil {
		t.Fatalf("build-tag pair failed to load: %v", err)
	}
	if len(pkgs) != 1 || len(pkgs[0].Files) != 1 {
		t.Fatalf("want 1 package with 1 selected file, got %d packages", len(pkgs))
	}
}

// TestGoldenCorpus locks the analyzer suite's output over the fixture
// module: every analyzer's positive cases, the suppression directive
// (justified, unjustified, malformed), and the clean file.
func TestGoldenCorpus(t *testing.T) {
	root := fixtureDir(t)
	diags := runOver(t, LoadConfig{Dir: root}, "./...")

	var b strings.Builder
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.File)
		if err != nil {
			t.Fatal(err)
		}
		d.File = filepath.ToSlash(rel)
		for i := range d.Related {
			rrel, err := filepath.Rel(root, d.Related[i].File)
			if err != nil {
				t.Fatal(err)
			}
			d.Related[i].File = filepath.ToSlash(rrel)
		}
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	got := b.String()

	want, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("corpus output diverged from testdata/golden.txt\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	for _, d := range diags {
		if strings.Contains(d.File, "cleanfix") {
			t.Errorf("clean fixture produced a finding: %s", d)
		}
	}
	checks := make(map[string]bool)
	for _, d := range diags {
		checks[d.Check] = true
	}
	for _, a := range Analyzers() {
		if !checks[a.Name] {
			t.Errorf("corpus exercises no %s finding", a.Name)
		}
	}
	if !checks["directive"] {
		t.Error("corpus exercises no directive finding")
	}

	// One hazard, one check: no position is reported by two of them.
	type pos struct {
		file      string
		line, col int
	}
	first := make(map[pos]string)
	for _, d := range diags {
		p := pos{d.File, d.Line, d.Col}
		if c, ok := first[p]; ok && c != d.Check {
			t.Errorf("%s:%d:%d reported by both %s and %s", d.File, d.Line, d.Col, c, d.Check)
		}
		first[p] = d.Check
	}
}

// TestConcurrentLoaders loads packages through separate Loaders at
// once: each has its own file set and importer, and they share only
// what the standard library's export-data importer caches.
func TestConcurrentLoaders(t *testing.T) {
	root := fixtureDir(t)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loader, err := NewLoader(LoadConfig{Dir: root})
			if err == nil {
				_, err = loader.Load("./internal/cleanfix", "./internal/lockfix")
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestDirectiveFixtureClean pins the //gflint:ignore interaction with
// the dataflow analyzers: every finding in dirfix carries a justified
// suppression, so the package must produce nothing — and because a
// directive whose check reports nothing goes stale (a finding), this
// also proves each suppressed analyzer still fires there.
func TestDirectiveFixtureClean(t *testing.T) {
	diags := runOver(t, LoadConfig{Dir: fixtureDir(t)}, "./internal/dirfix")
	if len(diags) != 0 {
		var b strings.Builder
		for _, d := range diags {
			b.WriteString(d.String())
			b.WriteString("\n")
		}
		t.Fatalf("dirfix should be fully suppressed, got:\n%s", b.String())
	}
}

// TestCleanFixtureStandalone double-checks the zero-findings path
// (and the CLI's zero exit) on the clean package alone.
func TestCleanFixtureStandalone(t *testing.T) {
	if diags := runOver(t, LoadConfig{Dir: fixtureDir(t)}, "./internal/cleanfix"); len(diags) != 0 {
		t.Fatalf("clean fixture: %v", diags)
	}
	var out, errb bytes.Buffer
	if code := Main([]string{"-C", fixtureDir(t), "./internal/cleanfix"}, &out, &errb); code != ExitClean {
		t.Fatalf("CLI exit %d on clean package, want %d (stderr: %s)", code, ExitClean, errb.String())
	}
	if out.Len() != 0 {
		t.Fatalf("CLI wrote %q for a clean package", out.String())
	}
}

// TestCLI covers exit codes and the JSON output mode end to end.
func TestCLI(t *testing.T) {
	root := fixtureDir(t)

	var out, errb bytes.Buffer
	if code := Main([]string{"-C", root, "./..."}, &out, &errb); code != ExitFindings {
		t.Fatalf("exit %d over corpus, want %d (stderr: %s)", code, ExitFindings, errb.String())
	}
	if !strings.Contains(out.String(), "order:") || !strings.Contains(out.String(), "finding(s)") {
		t.Fatalf("text output missing findings summary:\n%s", out.String())
	}

	out.Reset()
	if code := Main([]string{"-C", root, "-json", "./..."}, &out, &errb); code != ExitFindings {
		t.Fatalf("json exit %d, want %d", code, ExitFindings)
	}
	var diags []Diagnostic
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("JSON output does not parse: %v\n%s", err, out.String())
	}
	if len(diags) == 0 || diags[0].Check == "" || diags[0].Line == 0 {
		t.Fatalf("JSON diagnostics incomplete: %+v", diags)
	}

	out.Reset()
	if code := Main([]string{"-C", root, "-json", "./internal/cleanfix"}, &out, &errb); code != ExitClean {
		t.Fatalf("json clean exit %d, want %d", code, ExitClean)
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Fatalf("clean JSON output = %q, want []", out.String())
	}

	out.Reset()
	if code := Main([]string{"-list"}, &out, &errb); code != ExitClean {
		t.Fatalf("-list exit %d", code)
	}
	for _, a := range Analyzers() {
		if !strings.Contains(out.String(), a.Name) {
			t.Fatalf("-list output missing %s:\n%s", a.Name, out.String())
		}
	}

	if code := Main([]string{"-checks", "nosuchcheck", "."}, &out, &errb); code != ExitError {
		t.Fatalf("unknown check exit %d, want %d", code, ExitError)
	}
}

// TestChecksSubset runs a single analyzer and confirms other checks'
// findings (and their suppression directives) stay out of the way.
func TestChecksSubset(t *testing.T) {
	root := fixtureDir(t)
	var out, errb bytes.Buffer
	if code := Main([]string{"-C", root, "-checks", "globalrand", "-json", "./internal/grfix"}, &out, &errb); code != ExitFindings {
		t.Fatalf("exit %d (stderr: %s)", code, errb.String())
	}
	var diags []Diagnostic
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("want the 2 globalrand findings, got %+v", diags)
	}
	for _, d := range diags {
		if d.Check != "globalrand" {
			t.Fatalf("subset run leaked check %s", d.Check)
		}
	}
}

// mutation is one deleted-guard (or injected-hazard) scenario: edit
// the real source in memory, then require a diagnostic of the named
// check at the exact line of the now-unguarded statement.
type mutation struct {
	name    string // the hazard, which names the subtest with the file
	file    string // repo-relative source file
	pkg     string // pattern to load
	check   string // analyzer that must catch the mutation
	old     string // guard text to replace
	new     string // replacement without the guard
	flagged string // statement that must be flagged, located by text
	doc     string // when set, the document whose names are checked (check "docname"), where flagged is located
}

// TestMutationDeletedGuardsAreCaught is the acceptance criterion for
// the suite: deleting any one determinism or ownership guard in the
// real engine — a sorted-keys loop, a defensive copy, a draw outside
// a goroutine — must fail gflint with a diagnostic of the right check
// pointing at the exact line.
func TestMutationDeletedGuardsAreCaught(t *testing.T) {
	root := repoRoot(t)
	muts := []mutation{
		{
			// TotalOccupied summing users in map order instead of sorted.
			name:    "maprange",
			file:    "internal/core/sim.go",
			pkg:     "./internal/core",
			check:   "order",
			old:     "for _, u := range job.SortedUsers(r.UsageByUserGen) {\n\t\tfor _, v := range r.UsageByUserGen[u] {",
			new:     "for _, byGen := range r.UsageByUserGen {\n\t\tfor _, v := range byGen {",
			flagged: "\tt += v\n",
		},
		{
			// The engine's user positions taken in map order instead of
			// sorted.
			name:    "maprange",
			file:    "internal/core/sim.go",
			pkg:     "./internal/core",
			check:   "order",
			old:     "s.users = job.SortedUsers(s.tickets)\n",
			new:     "for u := range s.tickets {\n\t\ts.users = append(s.users, u)\n\t}\n",
			flagged: "s.users = append(s.users, u)",
		},
		{
			// SortedUsers returning its keys in map order, unsorted.
			name:    "maprange",
			file:    "internal/job/keys.go",
			pkg:     "./internal/job",
			check:   "order",
			old:     "\tsort.Slice(out, func(i, j int) bool { return out[i] < out[j] })\n",
			new:     "",
			flagged: "out = append(out, u)",
		},
		{
			// Collect-then-sum one step removed from the map range:
			// the sum ranges over a slice, not the map.
			name:    "floatsum",
			file:    "internal/core/sim.go",
			pkg:     "./internal/core",
			check:   "order",
			old:     "for _, u := range job.SortedUsers(r.UsageByUserGen) {\n\t\tfor _, v := range r.UsageByUserGen[u] {\n\t\t\tt += v\n\t\t}\n\t}",
			new:     "var coll []float64\n\tfor _, byGen := range r.UsageByUserGen {\n\t\tcoll = append(coll, byGen[0])\n\t}\n\tfor _, cv := range coll {\n\t\tt += cv\n\t}",
			flagged: "t += cv",
		},
		{
			// Emit handing the caller's records to a goroutine that
			// consumes them after Emit returns keeps the annotated
			// parameter — the noretain param contract.
			name:    "retain",
			file:    "internal/obs/observer.go",
			pkg:     "./internal/obs",
			check:   "retain",
			old:     "o.mu.Lock()\n\to.consume(recs)\n\to.mu.Unlock()",
			new:     "go func() {\n\t\to.mu.Lock()\n\t\to.consume(recs)\n\t\to.mu.Unlock()\n\t}()",
			flagged: "go func() {\n\t\to.mu.Lock()",
		},
		{
			// Retaining the reused share-sample buffer beyond the round
			// — the noretain result contract on shareSamples.
			name:    "retain",
			file:    "internal/core/round.go",
			pkg:     "./internal/core",
			check:   "retain",
			old:     "err := s.runPhases(rd)\n",
			new:     "err := s.runPhases(rd)\n\tshares := s.shareSamples()\n\tgo func() { _ = len(shares) }()\n",
			flagged: "go func() { _ = len(shares) }()",
		},
		{
			// A crash draw moved onto the scheduler's clock.
			name:    "rngorder",
			file:    "internal/faults/faults.go",
			pkg:     "./internal/faults",
			check:   "order",
			old:     "return in.rng.Float64() < in.crashProb",
			new:     "go func() { _ = in.rng.Float64() }()\n\treturn in.rng.Float64() < in.crashProb",
			flagged: "go func() { _ = in.rng.Float64() }()",
		},
		{
			// Parking on a channel with the observer's lock held.
			name:    "lockhold",
			file:    "internal/obs/observer.go",
			pkg:     "./internal/obs",
			check:   "lockhold",
			old:     "o.mu.Lock()\n\tdefer o.mu.Unlock()",
			new:     "o.mu.Lock()\n\tdefer o.mu.Unlock()\n\twaitCh := make(chan struct{})\n\t<-waitCh",
			flagged: "<-waitCh",
		},
		{
			// An exported function renamed under a document that names
			// it: the document's backticked name must be reported at its
			// line.
			name:    "docname",
			file:    "internal/fairshare/fairshare.go",
			pkg:     "./internal/fairshare",
			check:   "docname",
			old:     "func WaterFillWithDebt(",
			new:     "func WaterFillOwed(",
			flagged: "`fairshare.WaterFillWithDebt`",
			doc:     "DESIGN.md",
		},
		{
			// A method renamed under a document that names it by
			// package, type and method.
			name:    "docname",
			file:    "internal/trace/trace.go",
			pkg:     "./internal/trace",
			check:   "docname",
			old:     "func (l *Log) Append(",
			new:     "func (l *Log) Push(",
			flagged: "`trace.Log.Append`",
			doc:     "DESIGN.md",
		},
		{
			// Deleting the placement span's copy out into the slab
			// returns a view of the index's reused scratch buffer.
			name:    "scratchalias",
			file:    "internal/placement/index.go",
			pkg:     "./internal/placement",
			check:   "retain",
			old:     "idx.spanOut = out[:0]\n\tdevs := append(idx.cut(len(out)), out...)\n\tslices.Sort(devs)\n\treturn devs",
			new:     "idx.spanOut = out[:0]\n\tslices.Sort(out)\n\treturn out",
			flagged: "\treturn out",
		},
	}
	for _, m := range muts {
		t.Run(m.name+"/"+m.file, func(t *testing.T) {
			full := filepath.Join(root, filepath.FromSlash(m.file))
			src, err := os.ReadFile(full)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(src, []byte(m.old)) {
				t.Fatalf("guard text not found in %s; keep this test in sync with the source:\n%s", m.file, m.old)
			}
			mutated := bytes.Replace(src, []byte(m.old), []byte(m.new), 1)
			flaggedIn, wantFile := mutated, m.file
			if m.doc != "" {
				if flaggedIn, err = os.ReadFile(filepath.Join(root, m.doc)); err != nil {
					t.Fatal(err)
				}
				wantFile = m.doc
			}
			wantLine := lineOf(t, flaggedIn, m.flagged)

			loader := forkRealModule(t, "repro/"+strings.TrimPrefix(m.pkg, "./"), map[string][]byte{full: mutated})
			pkgs, err := loader.Load(m.pkg)
			if err != nil {
				t.Fatal(err)
			}
			var diags []Diagnostic
			if m.doc != "" {
				diags = unresolvedDocNames(t, loader, m.doc)
			} else {
				diags = Run(pkgs, Analyzers())
			}

			for _, d := range diags {
				if d.Check == m.check && strings.HasSuffix(filepath.ToSlash(d.File), wantFile) && d.Line == wantLine {
					return // caught at the exact line
				}
			}
			t.Fatalf("deleting the guard produced no %s diagnostic at %s:%d; got %v", m.check, wantFile, wantLine, diags)
		})
	}
}

// lineOf returns the 1-based line of the first occurrence of substr.
func lineOf(t *testing.T, src []byte, substr string) int {
	t.Helper()
	idx := bytes.Index(src, []byte(substr))
	if idx < 0 {
		t.Fatalf("statement %q not found in mutated source", substr)
	}
	return 1 + bytes.Count(src[:idx], []byte("\n"))
}

// realModule is the repository loaded as CI lints it (./..., test
// files included), type-checked once and shared by the tests that
// read the whole module and, through forkRealModule, by the mutation
// tests.
var realModule struct {
	once   sync.Once
	loader *Loader
	pkgs   []*Package
	err    error
}

func loadRealModule(t *testing.T) []*Package {
	t.Helper()
	if testing.Short() {
		t.Skip("typechecks the whole module; skipped in -short")
	}
	realModule.once.Do(func() {
		loader, err := NewLoader(LoadConfig{Dir: repoRoot(t), Tests: true})
		if err != nil {
			realModule.err = err
			return
		}
		realModule.loader = loader
		realModule.pkgs, realModule.err = loader.Load("./...")
	})
	if realModule.err != nil {
		t.Fatal(realModule.err)
	}
	return realModule.pkgs
}

// forkRealModule returns a Loader over the real module, without test
// files, that reads overlay and starts from the shared load's package
// table with the package at path dropped, so only that package is
// type-checked again. The fork shares the load's file set and
// importer, and registers annotations into a copy of its registry, so
// the objects of one mutated package reach neither the next fork nor
// the shared load.
func forkRealModule(t *testing.T, path string, overlay map[string][]byte) *Loader {
	t.Helper()
	loadRealModule(t)
	base := realModule.loader
	fork := *base
	fork.cfg = LoadConfig{Dir: base.modDir, Overlay: overlay}
	fork.pkgs = make(map[string]*Package, len(base.pkgs))
	for key, pkg := range base.pkgs {
		if pkg.Path != path {
			fork.pkgs[key] = pkg
		}
	}
	fork.loading = make(map[string]bool)
	fork.annot = &annotations{
		noRetain:   maps.Clone(base.annot.noRetain),
		noRetainFn: maps.Clone(base.annot.noRetainFn),
		reuses:     maps.Clone(base.annot.reuses),
	}
	return &fork
}

// TestRealModuleClean is the CI contract run in-process: the
// repository itself — test files included, exactly as CI invokes
// gflint — must stay free of findings. The load must reach the nested
// cmd/gfperf module, which CI lints through the same ./... run.
func TestRealModuleClean(t *testing.T) {
	pkgs := loadRealModule(t)
	if !slices.ContainsFunc(pkgs, func(p *Package) bool { return p.Path == "repro/cmd/gfperf" }) {
		t.Error("./... loaded no repro/cmd/gfperf package")
	}
	if diags := Run(pkgs, Analyzers()); len(diags) != 0 {
		var b strings.Builder
		for _, d := range diags {
			b.WriteString(d.String())
			b.WriteString("\n")
		}
		t.Fatalf("gflint findings in the repository:\n%s", b.String())
	}
}

// callerAllowlist names the exported functions in internal/ that no
// non-test file calls and that stay anyway, each with its reason: test
// support that the tests of several packages share. Keys are
// "import/path.Name" or "import/path.Type.Method".
var callerAllowlist = map[string]string{
	"repro/internal/job.MustNew":                     "fixture constructor for the tests of seven packages",
	"repro/internal/job.SortedIDs":                   "sorted walk of per-job maps in the core, job, placement and stride tests",
	"repro/internal/obs.Observer.Value":              "reads one metric series for the obs, core and distrib tests",
	"repro/internal/placement.Index.DeviceOps":       "the operation gate's device counters, which only the core tests bind",
	"repro/internal/fairshare.Allocation.TotalByGen": "capacity sums for the fairshare and trade tests",
}

// TestEveryExportHasACaller holds internal/ (this package aside) to
// "one concept, one implementation, one call site": every exported
// function and method must be used by a non-test file somewhere in
// the load, cmd/gfperf included, or be reachable through an interface
// some loaded type declares. A name only tests call belongs in a
// _test.go file. Declarations are keyed by package path, receiver type
// and name, because the loader checks a package both as a dependency
// and as a root with its tests, and the two object sets differ.
func TestEveryExportHasACaller(t *testing.T) {
	pkgs := loadRealModule(t)
	const scope = "repro/internal/"

	key := func(fn *types.Func) string {
		fn = fn.Origin()
		if fn.Pkg() == nil {
			return ""
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return fn.Pkg().Path() + "." + fn.Name()
		}
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		named, ok := rt.(*types.Named)
		if !ok {
			return "" // an interface's own method
		}
		return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
	}
	inTest := func(pkg *Package, pos token.Pos) bool {
		return strings.HasSuffix(pkg.Fset.Position(pos).Filename, "_test.go")
	}

	// Declarations under scope, and every use from a non-test file.
	decls := make(map[string]*types.Func)
	used := make(map[string]bool)
	for _, pkg := range pkgs {
		for id, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok && !inTest(pkg, id.Pos()) {
				used[key(fn)] = true
			}
		}
		if !strings.HasPrefix(pkg.Path, scope) || strings.HasPrefix(pkg.Path, scope+"lint") {
			continue
		}
		for _, f := range pkg.Files {
			if inTest(pkg, f.Package) {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					if k := key(fn); k != "" {
						decls[k] = fn
					}
				}
			}
		}
	}

	// Interfaces the load can call a method through, by method name:
	// every interface type the module's code mentions, and every
	// named interface of every package it imports.
	ifaces := make(map[string][]*types.Interface)
	seenIface := make(map[*types.Interface]bool)
	addIface := func(it *types.Interface) {
		if seenIface[it] {
			return
		}
		seenIface[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			ifaces[name] = append(ifaces[name], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seenPkg := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		sc := p.Scope()
		for _, name := range sc.Names() {
			if tn, ok := sc.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					addIface(it)
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.Type == nil {
				continue
			}
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				addIface(it)
			}
		}
	}
	viaInterface := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		rt := recv.Type()
		if _, ok := rt.(*types.Pointer); !ok {
			rt = types.NewPointer(rt) // the pointer's method set holds both
		}
		for _, it := range ifaces[fn.Name()] {
			if types.Implements(rt, it) {
				return true
			}
		}
		return false
	}

	var orphans []string
	for k, fn := range decls {
		if used[k] || viaInterface(fn) {
			continue
		}
		if _, ok := callerAllowlist[k]; ok {
			continue
		}
		orphans = append(orphans, k)
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d exported names in internal/ have no caller outside tests; move each to its package's _test.go or delete it:\n\t%s",
			len(orphans), strings.Join(orphans, "\n\t"))
	}
	for k := range callerAllowlist {
		if fn, ok := decls[k]; !ok || used[k] || viaInterface(fn) {
			t.Errorf("allowlisted %s is gone or has a caller now; drop it from callerAllowlist", k)
		}
	}
	if len(callerAllowlist) > 6 {
		t.Errorf("callerAllowlist has %d entries, at most 6 allowed", len(callerAllowlist))
	}
}
