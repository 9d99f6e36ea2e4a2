// Package load type-checks packages of this module from source using only
// the standard library, producing the inputs analyzers need (ASTs +
// go/types facts).
//
// Why not golang.org/x/tools/go/packages: the module is deliberately
// dependency-free and builds offline, so the loader resolves imports
// itself: paths under the module prefix map onto the repository tree,
// fixture paths map onto a checktest root directory (root/src/<path>, the
// analysistest layout), and everything else is delegated to the standard
// library's source importer, which compiles stdlib packages from GOROOT.
//
// Type-info caching (ROADMAP item 4): all Load calls in one process that
// share a module root and fixture root also share one type-checking
// session — one FileSet, one stdlib importer, one memo of checked
// packages. The import chain (stdlib included) is type-checked once per
// process instead of once per Load, which is what makes a test binary
// that runs an analyzer over many fixture packages, or a driver that
// loads patterns in several calls, pay the go/types cost once. Targets
// are also checked lazily: with Tests set, only the test-augmented
// variant of a target is built up front; the plain variant is checked on
// demand, when (and only when) another package imports it.
//
// While type-checking, the loader scans function doc comments for
// taint-source markers (ROADMAP item 2):
//
//	//memlint:source result=N
//
// declares that the function's N-th result carries key material. The
// markers live in the packages that own the APIs (internal/crypto/*,
// internal/ssl), and Result.Sources hands the accumulated table to the
// keycopy analyzer — no more hardcoded source list in the analyzer.
//
// The dual marker declares a zeroizing release:
//
//	//memlint:sink param=N
//
// promises that the function clears the byte slice passed as its N-th
// parameter before returning (internal/scrub.Bytes is the canonical
// sink). Result.Sinks hands the table to the keylifetime analyzer.
//
// The third marker declares a sealed-window scope:
//
//	//memlint:window param=N
//
// promises that the function's N-th parameter is a callback executed
// between an unseal and a reseal (seal.Region.WithOpen is the canonical
// window). Result.Windows hands the table to the sealwindow analyzer,
// which proves plaintext key bytes are only read inside such callbacks
// and never alias past them.
//
// The session additionally keeps a whole-program function index (full
// go/types name → declaration + type info) and a summary cache, so the
// interprocedural keylifetime analyzer can walk callee bodies bottom-up
// and memoize per-function taint/zeroize summaries once per process —
// the same amortization the type-check memo provides (ROADMAP item 4).
package load

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
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// A Package is one loaded, type-checked package.
type Package struct {
	// PkgPath is the path the package was requested under; external test
	// packages get the real package path plus a "_test" suffix.
	PkgPath string
	// Dir is the directory the sources were read from.
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// testFiles marks files parsed from *_test.go.
	testFiles map[*ast.File]bool
}

// IsTestFile reports whether f was parsed from a *_test.go file.
func (p *Package) IsTestFile(f *ast.File) bool { return p.testFiles[f] }

// Config controls a load.
type Config struct {
	// ModuleRoot is the directory containing go.mod. Empty means "walk
	// upward from the working directory".
	ModuleRoot string
	// FixtureRoot, when set, resolves import paths from FixtureRoot/src/
	// first — the analysistest testdata layout used by checktest.
	FixtureRoot string
	// Tests includes *_test.go files of the requested packages: in-package
	// test files join their package; external "foo_test" packages are
	// returned as additional packages.
	Tests bool
}

// A Result is one completed load.
type Result struct {
	// Pkgs are the packages matched by the patterns, in directory order.
	Pkgs []*Package
	Fset *token.FileSet
	// Sources maps the go/types full name of every function carrying a
	// //memlint:source marker — in any package type-checked by this
	// session so far — to the index of its tainted result.
	Sources map[string]int
	// Sinks maps the go/types full name of every function carrying a
	// //memlint:sink marker to the index of the parameter it zeroizes.
	Sinks map[string]int
	// Windows maps the go/types full name of every function carrying a
	// //memlint:window marker to the index of its callback parameter: the
	// function runs that callback inside an unseal→reseal window.
	Windows map[string]int
	// ModuleRoot is the absolute module root directory the load resolved
	// against; ModulePath is the module path from its go.mod. Cache
	// layers key package content by mapping import paths onto the tree
	// with these.
	ModuleRoot string
	ModulePath string

	ses *session
}

// A FuncInfo locates one function declaration the session type-checked,
// with the type info of its declaring package.
type FuncInfo struct {
	Decl    *ast.FuncDecl
	Info    *types.Info
	PkgPath string
}

// LookupFunc resolves a go/types full function name (as types.Func.FullName
// renders it) to its declaration, searching every package the session has
// type-checked — targets and transitively imported module packages alike.
// Standard-library functions are not indexed (the source importer owns
// them); callers treat an absent body conservatively.
func (r *Result) LookupFunc(fullName string) (FuncInfo, bool) {
	r.ses.mu.Lock()
	defer r.ses.mu.Unlock()
	fi, ok := r.ses.funcs[fullName]
	return fi, ok
}

// Summaries returns the session-wide summary cache: an opaque store the
// interprocedural analyzers use to memoize per-function facts across every
// Load sharing the session. Keys are full function names; values are
// whatever the analyzer stores (the cache does not interpret them).
func (r *Result) Summaries() *SummaryCache { return &r.ses.summaries }

// A SummaryCache memoizes per-function analysis facts for the lifetime of
// a type-checking session.
type SummaryCache struct {
	mu sync.Mutex
	m  map[string]any
}

// Get returns the cached value for key, if any.
func (c *SummaryCache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

// Put stores the value for key, replacing any previous one.
func (c *SummaryCache) Put(key string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[string]any{}
	}
	c.m[key] = v
}

// session is the process-wide type-checking state shared by every Load
// with the same module root and fixture root: one FileSet, one stdlib
// source importer, one package memo, one source-marker table.
type session struct {
	mu        sync.Mutex
	fset      *token.FileSet
	std       types.Importer
	pkgs      map[string]*Package // by PkgPath (+" [tests]" for augmented variants)
	sources   map[string]int
	sinks     map[string]int
	windows   map[string]int
	funcs     map[string]FuncInfo // full function name → declaration
	summaries SummaryCache
}

var (
	sessionsMu sync.Mutex
	sessions   = map[string]*session{}
)

func sessionFor(moduleRoot, fixtureRoot string) *session {
	sessionsMu.Lock()
	defer sessionsMu.Unlock()
	key := moduleRoot + "\x00" + fixtureRoot
	ses, ok := sessions[key]
	if !ok {
		fset := token.NewFileSet()
		ses = &session{
			fset:    fset,
			std:     importer.ForCompiler(fset, "source", nil),
			pkgs:    map[string]*Package{},
			sources: map[string]int{},
			sinks:   map[string]int{},
			windows: map[string]int{},
			funcs:   map[string]FuncInfo{},
		}
		sessions[key] = ses
	}
	return ses
}

// loader runs one Load over a session.
type loader struct {
	cfg        Config
	modulePath string
	ses        *session
	loading    map[string]bool // cycle detection
}

// Load resolves the patterns and type-checks every matched package.
// Patterns: "./..." (whole module), "dir/..." (subtree), and plain
// directories relative to the module root (with or without "./").
func (cfg Config) Load(patterns ...string) (*Result, error) {
	root := cfg.ModuleRoot
	if root == "" {
		var err error
		if root, err = FindModuleRoot(); err != nil {
			return nil, err
		}
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	cfg.ModuleRoot = root
	if cfg.FixtureRoot != "" {
		if cfg.FixtureRoot, err = filepath.Abs(cfg.FixtureRoot); err != nil {
			return nil, err
		}
	}
	modulePath, err := modulePathOf(root)
	if err != nil {
		return nil, err
	}
	ses := sessionFor(root, cfg.FixtureRoot)
	ses.mu.Lock()
	defer ses.mu.Unlock()
	ld := &loader{
		cfg:        cfg,
		modulePath: modulePath,
		ses:        ses,
		loading:    map[string]bool{},
	}

	targets, err := ld.expandPatterns(patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, tgt := range targets {
		pkgs, err := ld.loadTarget(tgt)
		if err != nil {
			return nil, err
		}
		out = append(out, pkgs...)
	}
	sources := make(map[string]int, len(ses.sources))
	for k, v := range ses.sources {
		sources[k] = v
	}
	sinks := make(map[string]int, len(ses.sinks))
	for k, v := range ses.sinks {
		sinks[k] = v
	}
	windows := make(map[string]int, len(ses.windows))
	for k, v := range ses.windows {
		windows[k] = v
	}
	return &Result{
		Pkgs: out, Fset: ses.fset, Sources: sources, Sinks: sinks, Windows: windows,
		ModuleRoot: root, ModulePath: modulePath, ses: ses,
	}, nil
}

// FindModuleRoot walks upward from the working directory to go.mod.
func FindModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("load: no go.mod above working directory")
		}
		dir = parent
	}
}

func modulePathOf(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("load: no module line in %s/go.mod", root)
}

// target pairs a package directory with the import path to check it under.
type target struct {
	dir  string
	path string
}

// expandPatterns turns CLI patterns (or checktest fixture import paths)
// into load targets.
func (ld *loader) expandPatterns(patterns []string) ([]target, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var targets []target
	add := func(dir, path string) {
		if !seen[dir] {
			seen[dir] = true
			targets = append(targets, target{dir, path})
		}
	}
	addDir := func(dir string) error {
		path, err := ld.importPathFor(dir)
		if err != nil {
			return err
		}
		add(dir, path)
		return nil
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		// A fixture import path resolves through the fixture root and is
		// checked under its own path (the analysistest layout).
		if !recursive && ld.cfg.FixtureRoot != "" {
			if dir := filepath.Join(ld.cfg.FixtureRoot, "src", filepath.FromSlash(pat)); hasGoFiles(dir) {
				add(dir, pat)
				continue
			}
		}
		pat = strings.TrimPrefix(pat, "./")
		base := filepath.Join(ld.cfg.ModuleRoot, filepath.FromSlash(pat))
		if !recursive {
			if err := addDir(base); err != nil {
				return nil, err
			}
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				return addDir(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].dir < targets[j].dir })
	return targets, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// importPathFor maps a module directory back to its import path.
func (ld *loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(ld.cfg.ModuleRoot, dir)
	if err != nil {
		return "", err
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		return ld.modulePath, nil
	}
	if strings.HasPrefix(rel, "../") {
		return "", fmt.Errorf("load: directory %s outside module %s", dir, ld.cfg.ModuleRoot)
	}
	return ld.modulePath + "/" + rel, nil
}

// loadTarget type-checks one target package. Without Tests, that is the
// plain package. With Tests it follows the `go list` model lazily: the
// analyzed target is the variant augmented with its in-package test
// files, external "foo_test" packages come back as additional targets,
// and the plain variant is only checked if some other package imports it.
func (ld *loader) loadTarget(tgt target) ([]*Package, error) {
	if !ld.cfg.Tests {
		pkg, err := ld.check(tgt.path, tgt.dir)
		if err != nil {
			return nil, err
		}
		return []*Package{pkg}, nil
	}
	aug, err := ld.checkAugmented(tgt.path, tgt.dir)
	if err != nil {
		return nil, err
	}
	out := []*Package{aug}
	ext, err := ld.checkExternalTests(tgt.path, tgt.dir)
	if err != nil {
		return nil, err
	}
	if ext != nil {
		out = append(out, ext)
	}
	return out, nil
}

// resolveDir finds the source directory for an import path inside the
// fixture root or the module, or "" for paths the std importer owns.
func (ld *loader) resolveDir(path string) string {
	if ld.cfg.FixtureRoot != "" {
		dir := filepath.Join(ld.cfg.FixtureRoot, "src", filepath.FromSlash(path))
		if hasGoFiles(dir) {
			return dir
		}
	}
	if path == ld.modulePath {
		return ld.cfg.ModuleRoot
	}
	if rest, ok := strings.CutPrefix(path, ld.modulePath+"/"); ok {
		return filepath.Join(ld.cfg.ModuleRoot, filepath.FromSlash(rest))
	}
	return ""
}

// Import implements types.Importer so the checker can resolve module and
// fixture imports through the loader and stdlib imports through the source
// importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	if dir := ld.resolveDir(path); dir != "" {
		pkg, err := ld.check(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return ld.ses.std.Import(path)
}

// parseDir parses the directory's .go files that the go command would
// build for this platform, without the race detector: build constraints
// and GOOS/GOARCH file-name suffixes decide as in build.Default. include
// decides inclusion by file name; pkgName filters by declared package name
// when non-empty.
func (ld *loader) parseDir(dir string, include func(name string) bool, pkgName string) ([]*ast.File, map[*ast.File]bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	testFiles := map[*ast.File]bool{}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !include(name) {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(ld.ses.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		if pkgName != "" && f.Name.Name != pkgName {
			continue
		}
		files = append(files, f)
		if strings.HasSuffix(name, "_test.go") {
			testFiles[f] = true
		}
	}
	return files, testFiles, nil
}

// check type-checks one package without test files, memoized by import
// path (this is the variant importers must see).
func (ld *loader) check(path, dir string) (*Package, error) {
	if pkg, ok := ld.ses.pkgs[path]; ok {
		return pkg, nil
	}
	if ld.loading[path] {
		return nil, fmt.Errorf("load: import cycle through %s", path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)

	files, testFiles, err := ld.parseDir(dir, func(name string) bool {
		return !strings.HasSuffix(name, "_test.go")
	}, "")
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("load: no Go files in %s", dir)
	}
	pkg, err := ld.typeCheck(path, dir, files, testFiles)
	if err != nil {
		return nil, err
	}
	ld.ses.pkgs[path] = pkg
	return pkg, nil
}

// checkAugmented checks the package variant with its in-package test
// files included (the `go list` "foo [foo.test]" variant), memoized
// separately so importers keep seeing the plain variant — which is not
// checked here at all: if nothing imports the target, its bodies are
// type-checked exactly once.
func (ld *loader) checkAugmented(path, dir string) (*Package, error) {
	memoKey := path + " [tests]"
	if pkg, ok := ld.ses.pkgs[memoKey]; ok {
		return pkg, nil
	}
	all, testFiles, err := ld.parseDir(dir, func(string) bool { return true }, "")
	if err != nil {
		return nil, err
	}
	// The directory may also hold "foo_test" external-test files; keep
	// only the plain package, whose name a non-test file declares.
	pkgName := ""
	for _, f := range all {
		if !testFiles[f] {
			pkgName = f.Name.Name
			break
		}
	}
	if pkgName == "" {
		return nil, fmt.Errorf("load: no non-test Go files in %s", dir)
	}
	var files []*ast.File
	hasTests := false
	for _, f := range all {
		if f.Name.Name != pkgName {
			continue
		}
		files = append(files, f)
		if testFiles[f] {
			hasTests = true
		}
	}
	if !hasTests {
		// Nothing to augment: the plain (memoized) variant is the target.
		return ld.check(path, dir)
	}
	pkg, err := ld.typeCheck(path, dir, files, testFiles)
	if err != nil {
		return nil, err
	}
	ld.ses.pkgs[memoKey] = pkg
	return pkg, nil
}

// checkExternalTests loads the "package foo_test" files of dir, if any,
// memoized under the "_test" path.
func (ld *loader) checkExternalTests(path, dir string) (*Package, error) {
	extPath := path + "_test"
	if pkg, ok := ld.ses.pkgs[extPath]; ok {
		return pkg, nil
	}
	var base string
	if plain, _, err := ld.parseDir(dir, func(name string) bool { return !strings.HasSuffix(name, "_test.go") }, ""); err == nil && len(plain) > 0 {
		base = plain[0].Name.Name
	}
	files, testFiles, err := ld.parseDir(dir,
		func(name string) bool { return strings.HasSuffix(name, "_test.go") },
		base+"_test")
	if err != nil || len(files) == 0 {
		return nil, err
	}
	pkg, err := ld.typeCheck(extPath, dir, files, testFiles)
	if err != nil {
		return nil, err
	}
	ld.ses.pkgs[extPath] = pkg
	return pkg, nil
}

func (ld *loader) typeCheck(path, dir string, files []*ast.File, testFiles map[*ast.File]bool) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: ld}
	tpkg, err := conf.Check(path, ld.ses.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %w", path, err)
	}
	if err := ld.collectSources(path, files, info); err != nil {
		return nil, fmt.Errorf("load: %s: %w", path, err)
	}
	return &Package{
		PkgPath:   path,
		Dir:       dir,
		Files:     files,
		Types:     tpkg,
		Info:      info,
		testFiles: testFiles,
	}, nil
}

// sourceRe matches the taint-source marker in a function's doc comment:
//
//	//memlint:source result=N
var sourceRe = regexp.MustCompile(`^//memlint:source\s+result=(\d+)\s*$`)

// sinkRe matches the zeroizing-release marker:
//
//	//memlint:sink param=N
var sinkRe = regexp.MustCompile(`^//memlint:sink\s+param=(\d+)\s*$`)

// windowRe matches the sealed-window marker:
//
//	//memlint:window param=N
var windowRe = regexp.MustCompile(`^//memlint:window\s+param=(\d+)\s*$`)

// MarkerKinds names every doc-marker kind the loader collects, in the
// order they were introduced. Cache fingerprints fold it in so adding a
// marker kind invalidates findings computed before the kind existed.
const MarkerKinds = "source,sink,window"

// collectSources records every marked function of the just-checked files
// into the session's source and sink tables, validating that the named
// result or parameter exists and is a byte slice (the only shape the
// taint rules model), and indexes every function declaration for the
// interprocedural summary walk.
func (ld *loader) collectSources(path string, files []*ast.File, info *types.Info) error {
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if fd.Body != nil {
				ld.ses.funcs[fn.FullName()] = FuncInfo{Decl: fd, Info: info, PkgPath: path}
			}
			if fd.Doc == nil {
				continue
			}
			sig := fn.Type().(*types.Signature)
			for _, c := range fd.Doc.List {
				if m := sourceRe.FindStringSubmatch(c.Text); m != nil {
					idx, err := strconv.Atoi(m[1])
					if err != nil {
						return fmt.Errorf("bad //memlint:source marker on %s: %v", fn.FullName(), err)
					}
					if idx >= sig.Results().Len() {
						return fmt.Errorf("//memlint:source result=%d on %s: function has %d result(s)",
							idx, fn.FullName(), sig.Results().Len())
					}
					res := sig.Results().At(idx).Type()
					if s, ok := res.Underlying().(*types.Slice); !ok || !isByte(s.Elem()) {
						return fmt.Errorf("//memlint:source result=%d on %s: result type %s is not a byte slice",
							idx, fn.FullName(), res)
					}
					ld.ses.sources[fn.FullName()] = idx
				}
				if m := sinkRe.FindStringSubmatch(c.Text); m != nil {
					idx, err := strconv.Atoi(m[1])
					if err != nil {
						return fmt.Errorf("bad //memlint:sink marker on %s: %v", fn.FullName(), err)
					}
					if idx >= sig.Params().Len() {
						return fmt.Errorf("//memlint:sink param=%d on %s: function has %d parameter(s)",
							idx, fn.FullName(), sig.Params().Len())
					}
					par := sig.Params().At(idx).Type()
					if !isReleasable(par) {
						return fmt.Errorf("//memlint:sink param=%d on %s: parameter type %s is not a byte slice or *math/big.Int",
							idx, fn.FullName(), par)
					}
					ld.ses.sinks[fn.FullName()] = idx
				}
				if m := windowRe.FindStringSubmatch(c.Text); m != nil {
					idx, err := strconv.Atoi(m[1])
					if err != nil {
						return fmt.Errorf("bad //memlint:window marker on %s: %v", fn.FullName(), err)
					}
					if idx >= sig.Params().Len() {
						return fmt.Errorf("//memlint:window param=%d on %s: function has %d parameter(s)",
							idx, fn.FullName(), sig.Params().Len())
					}
					par := sig.Params().At(idx).Type()
					if _, ok := par.Underlying().(*types.Signature); !ok {
						return fmt.Errorf("//memlint:window param=%d on %s: parameter type %s is not a function",
							idx, fn.FullName(), par)
					}
					ld.ses.windows[fn.FullName()] = idx
				}
			}
		}
	}
	return nil
}

func isByte(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// isReleasable reports whether t is a type a zeroizing sink can take: a
// byte slice, or a *math/big.Int (whose limb slice is the buffer the key
// material actually lives in).
func isReleasable(t types.Type) bool {
	if s, ok := t.Underlying().(*types.Slice); ok && isByte(s.Elem()) {
		return true
	}
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "math/big" && obj.Name() == "Int"
}
