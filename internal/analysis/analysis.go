// Package analysis is a minimal, dependency-free analogue of
// golang.org/x/tools/go/analysis: just enough driver plumbing to write
// single-package static checkers over go/ast + go/types and run them from
// cmd/memlint and from analysistest-style unit tests (package checktest).
//
// It exists because this repository's correctness story (DESIGN.md §5)
// includes whole-program invariants — determinism, key-copy hygiene,
// physical-memory access discipline, checked simulated syscalls — that
// dynamic tests can only spot-check. The analyzers under
// internal/analysis/... enforce them on every build, and the framework is
// written against the standard library only so the module keeps its
// zero-dependency property.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name is the short command-line name (lowercase identifier).
	Name string
	// Doc is the one-paragraph description shown by `memlint -list`.
	Doc string
	// Run applies the check to one package via the Pass.
	Run func(*Pass) error
}

// A Diagnostic is one finding, positioned inside the analyzed package.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's syntax trees, including in-package test
	// files when the driver loads tests.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// PkgPath is the import path the package was loaded under. External
	// test packages carry their real "foo_test" path.
	PkgPath string
	// TypesInfo holds the type-checker's fact tables (Types, Defs, Uses,
	// Selections) for Files.
	TypesInfo *types.Info
	// IsTestFile reports whether a file came from *_test.go. Analyzers
	// whose invariants target shipped code (keycopy, simerrcheck) use it
	// to skip test-only noise.
	IsTestFile func(*ast.File) bool
	// Sources maps the go/types full name of every function the loader
	// saw carrying a //memlint:source marker to the index of its tainted
	// result. Drivers fill it from load.Result.Sources; the keycopy and
	// keylifetime analyzers consume it.
	Sources map[string]int
	// Sinks maps the go/types full name of every function carrying a
	// //memlint:sink marker to the index of the parameter it zeroizes (a
	// byte slice or *math/big.Int). Drivers fill it from load.Result.Sinks.
	Sinks map[string]int
	// Windows maps the go/types full name of every function carrying a
	// //memlint:window marker to the index of its callback parameter — a
	// function executed between an unseal and a reseal. Drivers fill it
	// from load.Result.Windows; the sealwindow analyzer consumes it.
	Windows map[string]int
	// LookupFunc resolves a full function name to its declaration in any
	// package the load session has type-checked, letting interprocedural
	// analyzers walk callee bodies. Nil (and a false return) means "body
	// unavailable" — analyzers must treat such callees conservatively.
	LookupFunc func(fullName string) (FuncSource, bool)
	// Summaries is the session-scoped memo interprocedural analyzers use
	// to cache per-function facts across packages and Load calls. May be
	// nil (every summary is then recomputed per pass).
	Summaries SummaryStore

	diagnostics []Diagnostic
	allows      allowIndex
}

// A FuncSource is one resolvable function body: its declaration plus the
// type info of the package that declares it.
type FuncSource struct {
	Decl    *ast.FuncDecl
	Info    *types.Info
	PkgPath string
}

// A SummaryStore memoizes per-function analysis facts. load.Result's
// session cache implements it.
type SummaryStore interface {
	Get(key string) (any, bool)
	Put(key string, v any)
}

// Reportf records a diagnostic at pos unless an allow directive suppresses
// it. The message should name the violated invariant and the fix.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.allows.suppressed(p.Fset, pos, p.Analyzer.Name) {
		return
	}
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Diagnostics returns the findings recorded so far.
func (p *Pass) Diagnostics() []Diagnostic { return p.diagnostics }

// allowRe matches suppression directives:
//
//	//memlint:allow detrand        <reason...>
//	//memlint:allow detrand,keycopy <reason...>
//
// A directive suppresses matching diagnostics reported on its own source
// line or on the line directly below it (so it can trail the offending
// statement or sit on its own line above it). A reason is required: bare
// allows rot.
var allowRe = regexp.MustCompile(`^//memlint:allow\s+([a-z][a-z0-9,]*)\s+\S`)

// IsAllowDirective reports whether a comment's text (as go/ast renders
// it, leading "//" included) is a memlint suppression directive. The
// policy package's suppression-budget test shares this definition so the
// budget counts exactly what the framework honours.
func IsAllowDirective(text string) bool { return allowRe.MatchString(text) }

// allowKey identifies one (file, line, analyzer) suppression.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

type allowIndex map[allowKey]bool

// buildAllowIndex scans the package's comments for directives.
func buildAllowIndex(fset *token.FileSet, files []*ast.File) allowIndex {
	idx := allowIndex{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, name := range strings.Split(m[1], ",") {
					idx[allowKey{pos.Filename, pos.Line, name}] = true
					idx[allowKey{pos.Filename, pos.Line + 1, name}] = true
				}
			}
		}
	}
	return idx
}

func (idx allowIndex) suppressed(fset *token.FileSet, pos token.Pos, analyzer string) bool {
	if len(idx) == 0 {
		return false
	}
	p := fset.Position(pos)
	return idx[allowKey{p.Filename, p.Line, analyzer}]
}

// NewPass assembles a Pass for one analyzer over one loaded package. The
// isTest classifier may be nil (no files treated as test files).
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package,
	pkgPath string, info *types.Info, isTest func(*ast.File) bool) *Pass {
	if isTest == nil {
		isTest = func(*ast.File) bool { return false }
	}
	return &Pass{
		Analyzer:   a,
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		PkgPath:    pkgPath,
		TypesInfo:  info,
		IsTestFile: isTest,
		allows:     buildAllowIndex(fset, files),
	}
}

// FuncObj resolves a call expression's callee to its *types.Func (methods
// included, through selections), or nil for non-call targets, built-ins and
// function-typed variables. Shared by every analyzer that matches calls
// against API lists.
func FuncObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// BuiltinName returns the name of the built-in function a call invokes
// (append, copy, clear, ...), or "".
func BuiltinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, ok := info.Uses[id].(*types.Builtin); !ok {
		return ""
	}
	return id.Name
}

// IsConversion reports whether a call expression is a type conversion.
func IsConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// IsPkgLevel reports whether obj is a package-level variable — the
// canonical "long-lived native-heap location" for the keycopy analyzer.
func IsPkgLevel(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Parent() == obj.Pkg().Scope()
}
