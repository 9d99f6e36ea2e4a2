package dataflow_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"memshield/internal/analysis/dataflow"
)

// ptProgram type-checks one source file and returns the tools a
// points-to test needs: the PT context (resolving same-file callees),
// per-function declarations, and the shared type info.
type ptProgram struct {
	fset  *token.FileSet
	info  *types.Info
	decls map[string]*ast.FuncDecl
	pt    *dataflow.PT
}

func parsePT(t *testing.T, src string) *ptProgram {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "pt.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("ptest", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	prog := &ptProgram{fset: fset, info: info, decls: map[string]*ast.FuncDecl{}}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
			prog.decls[fn.FullName()] = fd
		}
	}
	_ = pkg
	prog.pt = dataflow.NewPT(func(full string) (*ast.FuncDecl, *types.Info, bool) {
		d, ok := prog.decls[full]
		return d, info, ok
	}, nil)
	return prog
}

func (p *ptProgram) analyze(t *testing.T, name string) *dataflow.PointsTo {
	t.Helper()
	for full, d := range p.decls {
		if d.Name.Name == name {
			_ = full
			return p.pt.Analyze(d, p.info)
		}
	}
	t.Fatalf("no function %q", name)
	return nil
}

func (p *ptProgram) summary(t *testing.T, name string) *dataflow.EscSummary {
	t.Helper()
	for _, d := range p.decls {
		if d.Name.Name == name {
			if fn, ok := p.info.Defs[d.Name].(*types.Func); ok {
				return p.pt.SummaryOf(fn)
			}
		}
	}
	t.Fatalf("no function %q", name)
	return nil
}

// findCall returns the n-th call expression (in source order) inside
// the named function whose callee prints as want.
func (p *ptProgram) findCallFun(t *testing.T, fn string, idx int) ast.Expr {
	t.Helper()
	var decl *ast.FuncDecl
	for _, d := range p.decls {
		if d.Name.Name == fn {
			decl = d
		}
	}
	if decl == nil {
		t.Fatalf("no function %q", fn)
	}
	var calls []*ast.CallExpr
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			calls = append(calls, c)
		}
		return true
	})
	if idx >= len(calls) {
		t.Fatalf("function %q has %d calls, want index %d", fn, len(calls), idx)
	}
	return calls[idx].Fun
}

// TestFuncValueTargets is the precision the retrofit depends on: a
// function value bound through a plain var, a var-decl, and a struct
// field must all resolve to a complete singleton target set.
func TestFuncValueTargets(t *testing.T) {
	prog := parsePT(t, `package ptest
func wipe(b []byte) {}
type box struct{ cb func([]byte) }
func viaAssign() {
	f := wipe
	f(nil)
}
func viaDecl() {
	var f = wipe
	f(nil)
}
func viaField() {
	var b box
	b.cb = wipe
	b.cb(nil)
}`)
	for _, fn := range []string{"viaAssign", "viaDecl", "viaField"} {
		pt := prog.analyze(t, fn)
		fun := prog.findCallFun(t, fn, 0)
		fns, lits, complete := pt.FuncTargets(fun)
		if !complete {
			t.Errorf("%s: target set not complete", fn)
			continue
		}
		if len(lits) != 0 || len(fns) != 1 || fns[0].Name() != "wipe" {
			t.Errorf("%s: targets = %v / %d lits, want [wipe]", fn, fns, len(lits))
		}
	}
}

// TestClosureTarget resolves a literal bound to a variable.
func TestClosureTarget(t *testing.T) {
	prog := parsePT(t, `package ptest
func viaLit() {
	f := func(b []byte) {}
	f(nil)
}`)
	pt := prog.analyze(t, "viaLit")
	fun := prog.findCallFun(t, "viaLit", 0)
	fns, lits, complete := pt.FuncTargets(fun)
	if !complete || len(fns) != 0 || len(lits) != 1 {
		t.Errorf("targets = %v fns / %d lits, complete=%v; want one literal, complete", fns, len(lits), complete)
	}
}

// TestEscapes covers the carrier rules: globals, channel sends,
// goroutine captures, and unknown callees all escape; a purely local
// buffer does not.
func TestEscapes(t *testing.T) {
	prog := parsePT(t, `package ptest
var G []byte
var C = make(chan []byte, 1)
func external([]byte)

func toGlobal(p []byte) { G = p }
func toChan(p []byte)   { C <- p }
func toGo(p []byte)     { go func() { _ = p }() }
func toUnknown(p []byte) { external(p) }
func local(p []byte)    { q := p; _ = q }
func viaStruct(p []byte) {
	type holder struct{ b []byte }
	var h holder
	h.b = p
	G = h.b
}`)
	for _, tc := range []struct {
		fn  string
		esc bool
	}{
		{"toGlobal", true},
		{"toChan", true},
		{"toGo", true},
		{"toUnknown", true},
		{"local", false},
		{"viaStruct", true},
	} {
		sum := prog.summary(t, tc.fn)
		if sum.Widened {
			t.Errorf("%s: widened", tc.fn)
			continue
		}
		if len(sum.ParamEscapes) != 1 || sum.ParamEscapes[0] != tc.esc {
			t.Errorf("%s: ParamEscapes = %v, want [%v]", tc.fn, sum.ParamEscapes, tc.esc)
		}
	}
}

// TestResultAlias: identity-shaped functions must report the
// result→param alias so callers track taint through them.
func TestResultAlias(t *testing.T) {
	prog := parsePT(t, `package ptest
func id(b []byte) []byte { return b }
func second(a, b []byte) []byte { return b }
func fresh(b []byte) []byte { return append([]byte(nil), b...) }
func pick(a, b []byte, c bool) []byte {
	if c {
		return a
	}
	return b
}`)
	sum := prog.summary(t, "id")
	if len(sum.ResultAlias) != 1 || len(sum.ResultAlias[0]) != 1 || sum.ResultAlias[0][0] != 0 {
		t.Errorf("id: ResultAlias = %v, want [[0]]", sum.ResultAlias)
	}
	sum = prog.summary(t, "second")
	if len(sum.ResultAlias) != 1 || len(sum.ResultAlias[0]) != 1 || sum.ResultAlias[0][0] != 1 {
		t.Errorf("second: ResultAlias = %v, want [[1]]", sum.ResultAlias)
	}
	sum = prog.summary(t, "fresh")
	if len(sum.ResultAlias) != 1 || len(sum.ResultAlias[0]) != 0 {
		t.Errorf("fresh: ResultAlias = %v, want [[]]", sum.ResultAlias)
	}
	sum = prog.summary(t, "pick")
	if len(sum.ResultAlias) != 1 || len(sum.ResultAlias[0]) != 2 {
		t.Errorf("pick: ResultAlias = %v, want [[0 1]]", sum.ResultAlias)
	}
}

// TestInterprocEscape: escapes propagate through resolved callees —
// passing to a function that stores globally escapes the argument, and
// passing to one that doesn't, doesn't.
func TestInterprocEscape(t *testing.T) {
	prog := parsePT(t, `package ptest
var G []byte
func keep(b []byte) { G = b }
func drop(b []byte) { _ = b }
func callsKeep(p []byte) { keep(p) }
func callsDrop(p []byte) { drop(p) }
func callsKeepViaVar(p []byte) {
	f := keep
	f(p)
}`)
	for _, tc := range []struct {
		fn  string
		esc bool
	}{
		{"callsKeep", true},
		{"callsDrop", false},
		{"callsKeepViaVar", true},
	} {
		sum := prog.summary(t, tc.fn)
		if len(sum.ParamEscapes) != 1 || sum.ParamEscapes[0] != tc.esc {
			t.Errorf("%s: ParamEscapes = %v, want [%v]", tc.fn, sum.ParamEscapes, tc.esc)
		}
	}
}

// TestRecursionWidens: a summary cycle falls back to the widened stub
// rather than diverging.
func TestRecursionWidens(t *testing.T) {
	prog := parsePT(t, `package ptest
func ping(b []byte) { pong(b) }
func pong(b []byte) { ping(b) }`)
	sum := prog.summary(t, "ping")
	// ping's own summary resolves, but its view of pong (mid-cycle) is
	// widened, so the parameter conservatively escapes.
	if len(sum.ParamEscapes) != 1 || !sum.ParamEscapes[0] {
		t.Errorf("ping: ParamEscapes = %v, want [true] (cycle widens)", sum.ParamEscapes)
	}
}

// TestOutsideStore: storing through a parameter-reachable pointer
// publishes the value (the callee's caller may retain it).
func TestOutsideStore(t *testing.T) {
	prog := parsePT(t, `package ptest
type cell struct{ b []byte }
func stash(c *cell, b []byte) { c.b = b }`)
	sum := prog.summary(t, "stash")
	if len(sum.ParamEscapes) != 2 || !sum.ParamEscapes[1] {
		t.Errorf("stash: ParamEscapes = %v, want [false true] or [true true]", sum.ParamEscapes)
	}
}

// TestResultOutside distinguishes fresh results from ones that hand
// back foreign memory.
func TestResultOutside(t *testing.T) {
	prog := parsePT(t, `package ptest
var G []byte
func leakG() []byte { return G }
func mint() []byte { return make([]byte, 8) }`)
	sum := prog.summary(t, "leakG")
	if len(sum.ResultOutside) != 1 || !sum.ResultOutside[0] {
		t.Errorf("leakG: ResultOutside = %v, want [true]", sum.ResultOutside)
	}
	sum = prog.summary(t, "mint")
	if len(sum.ResultOutside) != 1 || sum.ResultOutside[0] {
		t.Errorf("mint: ResultOutside = %v, want [false]", sum.ResultOutside)
	}
}

// TestPTStats: solving bumps the shared counters memlint -timings reads.
func TestPTStats(t *testing.T) {
	_, before := dataflow.PTStats()
	prog := parsePT(t, `package ptest
func f(b []byte) []byte { return b }`)
	prog.analyze(t, "f")
	_, after := dataflow.PTStats()
	if after <= before {
		t.Errorf("PTStats count did not advance: before=%d after=%d", before, after)
	}
}
