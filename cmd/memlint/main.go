// Command memlint is the repository's static-analysis gate: it runs the
// internal/analysis suite — detrand, physaccess, keycopy, keylifetime,
// sealwindow, simerrcheck, nopanic — over the module and exits nonzero
// on any finding. CI runs it next to `go vet`; see DESIGN.md "Static
// guarantees" for the invariant each analyzer enforces.
//
// Usage:
//
//	memlint [-list] [-tests=false] [-only name,name] [-cache=false] [-cachedir dir] [-json] [-timings] [patterns...]
//
// Patterns default to ./... (the whole module). Findings print as
// file:line:col: message (analyzer); -json prints the same path-sorted
// findings as a machine-readable document instead (CI archives it as
// the memlint-findings artifact). -timings appends a phase breakdown —
// package load, analysis, and the points-to solver's share — used by
// the CI timing artifact. Suppress a deliberate exception with a
// trailing
//
//	//memlint:allow <analyzer> <reason>
//
// comment on (or directly above) the offending line.
//
// Results are cached per package under .memlintcache at the module root
// (internal/analysis/lintcache), keyed by the suite identity, toolchain
// version and target platform, the loader's marker vocabulary, flag
// state, and the source bytes of the package plus its module-internal
// transitive imports — so a warm run and a cold run report identical
// findings, the warm one without re-analysis. -cache=false bypasses the
// cache entirely (`make lint-cold` deletes the directory first instead,
// timing the true cold path).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"memshield/internal/analysis"
	"memshield/internal/analysis/dataflow"
	"memshield/internal/analysis/detrand"
	"memshield/internal/analysis/keycopy"
	"memshield/internal/analysis/keylifetime"
	"memshield/internal/analysis/lintcache"
	"memshield/internal/analysis/load"
	"memshield/internal/analysis/nopanic"
	"memshield/internal/analysis/physaccess"
	"memshield/internal/analysis/sealwindow"
	"memshield/internal/analysis/simerrcheck"
)

// suite is every analyzer memlint runs, in output order.
var suite = []*analysis.Analyzer{
	detrand.Analyzer,
	physaccess.Analyzer,
	keycopy.Analyzer,
	keylifetime.Analyzer,
	sealwindow.Analyzer,
	simerrcheck.Analyzer,
	nopanic.Analyzer,
}

// suiteVersion salts the result cache; bump it whenever any analyzer's
// behavior changes (new checks, message rewording, policy table edits),
// so stale cached findings can never mask or invent a diagnostic.
// 2: sealwindow analyzer; keycopy/keylifetime points-to retrofit.
// 3: one key-taint engine: interprocedural keycopy, copy() and range taint.
// 4: physaccess's view-escape rule; the loader honors build constraints.
const suiteVersion = "4"

// cacheSalt is everything besides source bytes that can change a
// finding: the suite version, the toolchain and target platform (build
// tags and GOOS/GOARCH-gated files alter what the loader sees), the
// loader's marker vocabulary (a new marker kind changes what older
// cache entries never accounted for), and the flags selecting what
// runs. Cold and warm runs therefore print identical results — a hit
// replays, a miss re-analyzes and stores.
func cacheSalt(analyzerNames []string, tests bool) []string {
	return []string{
		"suite=" + suiteVersion,
		"go=" + runtime.Version(),
		"goos=" + runtime.GOOS,
		"goarch=" + runtime.GOARCH,
		"markers=" + load.MarkerKinds,
		"analyzers=" + strings.Join(analyzerNames, ","),
		fmt.Sprintf("tests=%v", tests),
	}
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memlint:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run executes the suite and returns the process exit code: 0 clean, 1
// findings.
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("memlint", flag.ContinueOnError)
	fs.SetOutput(out)
	list := fs.Bool("list", false, "list analyzers and exit")
	tests := fs.Bool("tests", true, "also analyze _test.go files")
	only := fs.String("only", "", "comma-separated analyzer names to run (default all)")
	useCache := fs.Bool("cache", true, "reuse per-package results from the on-disk cache")
	cacheDir := fs.String("cachedir", "", "cache directory (default <module root>/.memlintcache)")
	jsonOut := fs.Bool("json", false, "print findings as JSON instead of text")
	timings := fs.Bool("timings", false, "append a phase timing breakdown (load/analyze/points-to)")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *list {
		for _, a := range suite {
			fmt.Fprintf(out, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0, nil
	}
	analyzers := suite
	if *only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range suite {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				return 2, fmt.Errorf("unknown analyzer %q", name)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		// Like go vet: no patterns means the current directory, so a
		// mis-wired CI step can never silently check nothing.
		patterns = []string{"."}
	}
	ptNanos0, ptSolves0 := dataflow.PTStats()
	loadStart := time.Now()
	cfg := load.Config{Tests: *tests}
	res, err := cfg.Load(patterns...)
	if err != nil {
		return 2, err
	}
	loadTime := time.Since(loadStart)
	analyzeStart := time.Now()
	fset := res.Fset

	lookup := func(name string) (analysis.FuncSource, bool) {
		fi, ok := res.LookupFunc(name)
		return analysis.FuncSource{Decl: fi.Decl, Info: fi.Info, PkgPath: fi.PkgPath}, ok
	}

	var cache *lintcache.Cache
	var salt []string
	if *useCache {
		dir := *cacheDir
		if dir == "" {
			dir = filepath.Join(res.ModuleRoot, ".memlintcache")
		}
		cache = &lintcache.Cache{Dir: dir}
		names := make([]string, len(analyzers))
		for i, a := range analyzers {
			names[i] = a.Name
		}
		salt = cacheSalt(names, *tests)
	}

	var findings []lintcache.Finding
	for _, pkg := range res.Pkgs {
		files := make([]string, len(pkg.Files))
		for i, f := range pkg.Files {
			files[i] = fset.Position(f.Pos()).Filename
		}
		key := ""
		if cache != nil {
			k, err := lintcache.Key(salt, pkg.PkgPath, files, pkg.Types.Imports(), res.ModuleRoot, res.ModulePath)
			if err == nil {
				key = k
				if e, ok := cache.Lookup(key); ok {
					for _, f := range e.Findings {
						f.File = filepath.Join(res.ModuleRoot, f.File)
						findings = append(findings, f)
					}
					continue
				}
			}
		}
		var pkgFindings []lintcache.Finding
		for _, a := range analyzers {
			pass := analysis.NewPass(a, fset, pkg.Files, pkg.Types, pkg.PkgPath, pkg.Info, pkg.IsTestFile)
			pass.Sources = res.Sources
			pass.Sinks = res.Sinks
			pass.Windows = res.Windows
			pass.LookupFunc = lookup
			pass.Summaries = res.Summaries()
			if err := a.Run(pass); err != nil {
				return 2, fmt.Errorf("%s on %s: %w", a.Name, pkg.PkgPath, err)
			}
			for _, d := range pass.Diagnostics() {
				pos := fset.Position(d.Pos)
				pkgFindings = append(pkgFindings, lintcache.Finding{
					File: pos.Filename, Line: pos.Line, Col: pos.Column,
					Message: d.Message, Analyzer: d.Analyzer,
				})
			}
		}
		if cache != nil && key != "" {
			entry := &lintcache.Entry{PkgPath: pkg.PkgPath}
			storable := true
			for _, f := range pkgFindings {
				rel, err := filepath.Rel(res.ModuleRoot, f.File)
				if err != nil || strings.HasPrefix(rel, "..") {
					storable = false
					break
				}
				f.File = rel
				entry.Findings = append(entry.Findings, f)
			}
			if storable {
				// Best effort: a failed store only costs the next run time.
				_ = cache.Store(key, entry)
			}
		}
		findings = append(findings, pkgFindings...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	cwd, _ := os.Getwd()
	if *jsonOut {
		if err := writeJSON(out, findings, cwd); err != nil {
			return 2, err
		}
	} else {
		for _, f := range findings {
			pos := token.Position{Filename: f.File, Line: f.Line, Column: f.Col}
			fmt.Fprintf(out, "%s: %s (%s)\n", relPos(pos, cwd), f.Message, f.Analyzer)
		}
		if len(findings) > 0 {
			fmt.Fprintf(out, "memlint: %d finding(s)\n", len(findings))
		}
	}
	if *timings {
		ptNanos, ptSolves := dataflow.PTStats()
		fmt.Fprintf(out, "memlint timing: load=%dms analyze=%dms pointsto=%dms solves=%d\n",
			loadTime.Milliseconds(), time.Since(analyzeStart).Milliseconds(),
			(ptNanos - ptNanos0).Milliseconds(), ptSolves-ptSolves0)
	}
	if len(findings) > 0 {
		return 1, nil
	}
	return 0, nil
}

// jsonFinding is one finding in the -json document. File paths are
// rendered relative to the working directory when possible (module-
// relative in CI), so the artifact is stable across checkouts.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Analyzer string `json:"analyzer"`
}

// writeJSON emits the path-sorted findings as one indented document:
// {"count": N, "findings": [...]}. An empty run emits count 0 and an
// empty array, never null, so consumers can index unconditionally.
func writeJSON(out io.Writer, findings []lintcache.Finding, cwd string) error {
	doc := struct {
		Count    int           `json:"count"`
		Findings []jsonFinding `json:"findings"`
	}{Count: len(findings), Findings: []jsonFinding{}}
	for _, f := range findings {
		file := f.File
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = rel
			}
		}
		doc.Findings = append(doc.Findings, jsonFinding{
			File: file, Line: f.Line, Col: f.Col,
			Message: f.Message, Analyzer: f.Analyzer,
		})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(&doc)
}

// relPos renders a position with a cwd-relative path when possible.
func relPos(pos token.Position, cwd string) string {
	file := pos.Filename
	if cwd != "" {
		if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
	}
	return fmt.Sprintf("%s:%d:%d", file, pos.Line, pos.Column)
}
