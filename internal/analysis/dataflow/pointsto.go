// pointsto.go implements the alias half of the dataflow core: a
// flow-insensitive, field-sensitive (depth 2, matching the taint
// analyzers' fact domain) Andersen-style points-to and escape analysis
// over one function body, closures included.
//
// The model is the classic inclusion-constraint one, adapted to Go:
//
//   - Objects are the things pointers can point at: allocation sites
//     (composite literals, new, make, append, call results), a
//     variable's own storage (reached by &v, or implicitly for struct
//     and array values), named functions and function literals (for
//     call-target resolution), and synthetic OUTSIDE objects standing
//     for memory the function does not own — parameters' pointees,
//     globals' pointees, unknown callees' results.
//
//   - Nodes hold points-to sets: one per variable (its current value),
//     one per (object, selector) field cell, and anonymous temporaries
//     for expression values. Selectors are the same bounded access
//     paths keylifetime uses — ".F" struct members, "[*]" slice/array/
//     map/channel elements, composed to depth two and truncated beyond
//     (truncation conflates deep paths, which only ever ADDs aliases:
//     the conservative direction for a may-analysis).
//
//   - Constraints are generated in one walk over the body (assignments,
//     composite literals, address-of, field/index selects, call
//     bindings, channel sends, closure captures) and solved by a
//     worklist: copy edges propagate deltas, load/store constraints
//     materialize field edges as base sets grow, and invoke constraints
//     bind arguments/results as function values arrive.
//
// Escape tracking rides on the same worklist: carrier nodes (globals,
// channel sends, go-statement captures, arguments to unknown callees)
// mark every object that reaches them as escaped, and an escaped
// object's field cells become carriers transitively. Per-function
// escape summaries (which parameters escape, which results alias which
// parameters) are memoized under "pts:"-prefixed keys in the same
// session store the keylifetime summaries live in, so the whole-module
// lint pays the cost once per function per process.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// PTKind classifies one points-to object.
type PTKind uint8

const (
	// PTAlloc is a heap/stack allocation site: a composite literal,
	// new/make/append, or a callee-allocated result cell.
	PTAlloc PTKind = iota
	// PTVarStorage is a variable's own storage, reached by &v or used
	// implicitly as the identity of a struct/array value.
	PTVarStorage
	// PTFunc is a named function or method used as a value.
	PTFunc
	// PTLit is a function literal used as a value.
	PTLit
	// PTOutside is memory the analyzed function does not own: a
	// parameter's pointee, a global's pointee, or an unknown callee's
	// result. Outside objects outlive every scope in the function.
	PTOutside
)

// A PTObject is one abstract memory object.
type PTObject struct {
	Kind PTKind
	// Pos is the allocation or declaration site (NoPos for the shared
	// unknown object).
	Pos token.Pos
	// Var identifies variable-storage objects and parameter/global
	// outside objects.
	Var *types.Var
	// Fn / Lit identify function objects.
	Fn  *types.Func
	Lit *ast.FuncLit

	// base/sel chain for derived field objects (&x.F): base is the
	// object index the field belongs to, -1 otherwise.
	base int
	sel  string

	escaped bool
}

// Escaped reports whether the object may be reachable after the
// function returns through a global, a channel, a goroutine capture, or
// an unknown callee.
func (o *PTObject) Escaped() bool { return o.escaped }

// An EscSummary is one function's points-to contract as its callers see
// it, computed from the callee's own PointsTo run and memoized in the
// load session under "pts:" + FullName.
type EscSummary struct {
	// ParamEscapes[i] is true when the i-th parameter's pointees may be
	// stored somewhere that outlives the call (global, channel,
	// goroutine, unknown callee).
	ParamEscapes []bool
	// RecvEscapes is the same for the method receiver.
	RecvEscapes bool
	// ResultAlias[r] lists parameter indices the r-th result may alias.
	ResultAlias [][]int
	// ResultAliasRecv[r] is true when the r-th result may alias the
	// receiver's pointees.
	ResultAliasRecv []bool
	// ResultOutside[r] is true when the r-th result may point at memory
	// the callee did not allocate (globals, its own callees' opaque
	// results) — callers must not treat it as fresh.
	ResultOutside []bool
	// Widened marks the conservative stub: body unavailable or a
	// summary-computation cycle. A widened callee escapes every
	// argument and returns outside memory.
	Widened bool
}

// WidenedEscSummary is the shared conservative stub.
var WidenedEscSummary = &EscSummary{Widened: true}

// Solver-phase counters for the memlint -timings surface.
var (
	ptSolveNanos atomic.Int64
	ptSolveCount atomic.Int64
)

// PTStats reports the cumulative points-to solver time and the number
// of function bodies solved in this process.
func PTStats() (time.Duration, int64) {
	return time.Duration(ptSolveNanos.Load()), ptSolveCount.Load()
}

// A PT is the per-analyzer entry point: it resolves callee bodies
// through lookup and memoizes escape summaries in store (keys are
// prefixed "pts:", so the store can be shared with other analyzers'
// summaries). Both fields may be nil — callees then widen.
type PT struct {
	// Lookup resolves a go/types full function name to its declaration
	// and the declaring package's type info.
	Lookup func(fullName string) (*ast.FuncDecl, *types.Info, bool)
	// Store memoizes *EscSummary values across passes. Nil falls back
	// to a per-PT map.
	Store interface {
		Get(key string) (any, bool)
		Put(key string, v any)
	}

	local  map[string]*EscSummary
	inprog map[string]bool
}

// NewPT builds a summary-resolving points-to context.
func NewPT(lookup func(string) (*ast.FuncDecl, *types.Info, bool),
	store interface {
		Get(key string) (any, bool)
		Put(key string, v any)
	}) *PT {
	return &PT{Lookup: lookup, Store: store, local: map[string]*EscSummary{}, inprog: map[string]bool{}}
}

func (pt *PT) cacheGet(key string) (*EscSummary, bool) {
	if pt.Store != nil {
		v, ok := pt.Store.Get(key)
		if !ok {
			return nil, false
		}
		s, ok := v.(*EscSummary)
		return s, ok
	}
	s, ok := pt.local[key]
	return s, ok
}

func (pt *PT) cachePut(key string, s *EscSummary) {
	if pt.Store != nil {
		pt.Store.Put(key, s)
		return
	}
	pt.local[key] = s
}

// SummaryOf resolves fn's escape summary: memo first, then a bottom-up
// computation over its body, then the widened stub. Cycles in the
// summary walk widen (the conservative direction: a widened callee
// escapes its arguments).
func (pt *PT) SummaryOf(fn *types.Func) *EscSummary {
	key := "pts:" + fn.FullName()
	if s, ok := pt.cacheGet(key); ok {
		return s
	}
	if pt.inprog[key] {
		return WidenedEscSummary
	}
	if pt.Lookup == nil {
		return WidenedEscSummary
	}
	decl, info, ok := pt.Lookup(fn.FullName())
	if !ok || decl == nil || decl.Body == nil {
		pt.cachePut(key, WidenedEscSummary)
		return WidenedEscSummary
	}
	pt.inprog[key] = true
	defer delete(pt.inprog, key)
	sum := pt.Analyze(decl, info).Summary()
	pt.cachePut(key, sum)
	return sum
}

// Analyze generates and solves the points-to constraints of one
// function declaration (closures included), seeding parameters and the
// receiver with outside objects.
func (pt *PT) Analyze(decl *ast.FuncDecl, info *types.Info) *PointsTo {
	p := newPointsTo(pt, info)
	if fn, ok := info.Defs[decl.Name].(*types.Func); ok {
		p.sig, _ = fn.Type().(*types.Signature)
	}
	if p.sig != nil {
		for i := 0; i < p.sig.Params().Len(); i++ {
			p.paramObjs = append(p.paramObjs, p.seedParam(p.sig.Params().At(i)))
		}
		p.recvObj = p.seedParam(p.sig.Recv())
	}
	if decl.Body != nil {
		p.genStmt(decl.Body)
	}
	p.solve()
	return p
}

// nodeKey identifies a named points-to node: a variable's value node
// (v set) or an object's field cell (obj >= 0).
type nodeKey struct {
	v   *types.Var
	obj int
	sel string
}

type derivedKey struct {
	base int
	sel  string
}

type allocKey struct {
	at  ast.Node
	idx int
}

// ptDeref is a pending load (node = destination) or store (node =
// source) through a base node's objects at a selector.
type ptDeref struct {
	sel  string
	node int
}

type ptAddr struct {
	sel string
	dst int
}

// ptInvoke binds a call through a function-valued expression as
// targets arrive in the callee node's points-to set.
type ptInvoke struct {
	call *ast.CallExpr
	args []int
	res  []int
}

// PointsTo is one solved (or in-construction) constraint system.
type PointsTo struct {
	pt   *PT
	info *types.Info
	sig  *types.Signature

	objs    []*PTObject
	derived map[derivedKey]int
	storage map[*types.Var]int
	funcs   map[*types.Func]int
	litObjs map[*ast.FuncLit]int
	allocs  map[allocKey]int
	unknown int // lazily created shared PTOutside, -1 until used

	nodes     map[nodeKey]int
	pts       []map[int]bool
	succs     [][]int
	loads     [][]ptDeref
	stores    [][]ptDeref
	addrs     [][]ptAddr
	invokes   [][]*ptInvoke
	carrier   []bool
	objFields map[int][]int // object → its materialized field nodes

	exprNode  map[ast.Expr]int
	litRets   map[*ast.FuncLit][][]int
	litStack  []*ast.FuncLit
	retNodes  [][]int // top-level function returns, per return stmt
	paramObjs []int
	recvObj   int

	work   []int
	pend   [][]int
	queued []bool

	solved bool
}

func newPointsTo(pt *PT, info *types.Info) *PointsTo {
	return &PointsTo{
		pt:        pt,
		info:      info,
		derived:   map[derivedKey]int{},
		storage:   map[*types.Var]int{},
		funcs:     map[*types.Func]int{},
		litObjs:   map[*ast.FuncLit]int{},
		allocs:    map[allocKey]int{},
		unknown:   -1,
		nodes:     map[nodeKey]int{},
		objFields: map[int][]int{},
		exprNode:  map[ast.Expr]int{},
		litRets:   map[*ast.FuncLit][][]int{},
		recvObj:   -1,
	}
}

// ---- object and node construction ----

func (p *PointsTo) newObj(o *PTObject) int {
	if o.base == 0 && o.sel == "" {
		o.base = -1
	}
	p.objs = append(p.objs, o)
	return len(p.objs) - 1
}

func (p *PointsTo) unknownObj() int {
	if p.unknown < 0 {
		p.unknown = p.newObj(&PTObject{Kind: PTOutside, base: -1, escaped: true})
	}
	return p.unknown
}

func (p *PointsTo) storageObj(v *types.Var) int {
	if id, ok := p.storage[v]; ok {
		return id
	}
	id := p.newObj(&PTObject{Kind: PTVarStorage, Pos: v.Pos(), Var: v, base: -1})
	p.storage[v] = id
	return id
}

func (p *PointsTo) funcObj(fn *types.Func) int {
	if id, ok := p.funcs[fn]; ok {
		return id
	}
	id := p.newObj(&PTObject{Kind: PTFunc, Pos: fn.Pos(), Fn: fn, base: -1})
	p.funcs[fn] = id
	return id
}

func (p *PointsTo) litObj(lit *ast.FuncLit) int {
	if id, ok := p.litObjs[lit]; ok {
		return id
	}
	id := p.newObj(&PTObject{Kind: PTLit, Pos: lit.Pos(), Lit: lit, base: -1})
	p.litObjs[lit] = id
	return id
}

func (p *PointsTo) allocObj(at ast.Node, idx int) int {
	key := allocKey{at, idx}
	if id, ok := p.allocs[key]; ok {
		return id
	}
	id := p.newObj(&PTObject{Kind: PTAlloc, Pos: at.Pos(), base: -1})
	p.allocs[key] = id
	return id
}

// derivedObj is the object standing for base's field cell at sel, used
// as the pointee of &x.F and as the value loaded from outside memory.
func (p *PointsTo) derivedObj(base int, sel string) int {
	bo := p.objs[base]
	if bo.base >= 0 {
		return p.derivedObj(bo.base, capSel(bo.sel+sel))
	}
	if bo.Kind == PTVarStorage && sel == "" {
		return base
	}
	sel = capSel(sel)
	key := derivedKey{base, sel}
	if id, ok := p.derived[key]; ok {
		return id
	}
	kind := bo.Kind
	if kind == PTFunc || kind == PTLit {
		kind = PTAlloc
	}
	id := p.newObj(&PTObject{Kind: kind, Pos: bo.Pos, Var: bo.Var, base: base, sel: sel, escaped: bo.escaped})
	p.derived[key] = id
	return id
}

func (p *PointsTo) newNode() int {
	p.pts = append(p.pts, map[int]bool{})
	p.succs = append(p.succs, nil)
	p.loads = append(p.loads, nil)
	p.stores = append(p.stores, nil)
	p.addrs = append(p.addrs, nil)
	p.invokes = append(p.invokes, nil)
	p.carrier = append(p.carrier, false)
	p.pend = append(p.pend, nil)
	p.queued = append(p.queued, false)
	return len(p.pts) - 1
}

// varNode is the node holding v's current value. Creation seeds the
// structural identities: struct/array variables point at their own
// storage, package-level variables are escape carriers whose pointees
// are outside memory.
func (p *PointsTo) varNode(v *types.Var) int {
	key := nodeKey{v: v, obj: -1}
	if id, ok := p.nodes[key]; ok {
		return id
	}
	id := p.newNode()
	p.nodes[key] = id
	if structLike(v.Type()) {
		p.addObj(id, p.storageObj(v))
	}
	if isPkgLevelVar(v) {
		st := p.storageObj(v)
		p.markCarrier(id)
		p.escapeObj(st)
		if !structLike(v.Type()) && pointerish(v.Type()) {
			p.addObj(id, p.derivedObj(st, ""))
		}
		if !structLike(v.Type()) {
			p.addObj(id, p.unknownObj())
		}
	}
	return id
}

// fieldNode is object obj's field cell at sel. For variable storage at
// sel "" it is the variable's own value node; for outside objects it is
// seeded with the derived outside pointee, so loads from unknown memory
// yield unknown values.
func (p *PointsTo) fieldNode(obj int, sel string) int {
	o := p.objs[obj]
	if o.base >= 0 {
		return p.fieldNode(o.base, capSel(o.sel+sel))
	}
	if o.Kind == PTVarStorage && sel == "" {
		return p.varNode(o.Var)
	}
	sel = capSel(sel)
	key := nodeKey{obj: obj, sel: sel}
	if id, ok := p.nodes[key]; ok {
		return id
	}
	id := p.newNode()
	p.nodes[key] = id
	p.objFields[obj] = append(p.objFields[obj], id)
	if o.Kind == PTOutside {
		p.addObj(id, p.derivedObj(obj, sel))
	}
	if o.escaped {
		p.markCarrier(id)
	}
	return id
}

func (p *PointsTo) tempNode() int { return p.newNode() }

// seedParam gives one parameter (or receiver) its outside object. Basic
// non-pointer parameters get none (-1): nothing to alias or escape.
func (p *PointsTo) seedParam(v *types.Var) int {
	if v == nil || !pointerish(v.Type()) {
		return -1
	}
	obj := p.newObj(&PTObject{Kind: PTOutside, Pos: v.Pos(), Var: v, base: -1})
	p.addObj(p.varNode(v), obj)
	if structLike(v.Type()) {
		// A struct parameter is a copy, but its pointer-bearing fields
		// still reference caller memory: route field loads through the
		// outside object too.
		p.addObj(p.varNode(v), obj)
	}
	return obj
}

// ---- worklist solver ----

func (p *PointsTo) addObj(n, o int) {
	if p.pts[n][o] {
		return
	}
	p.pts[n][o] = true
	p.pend[n] = append(p.pend[n], o)
	if !p.queued[n] {
		p.queued[n] = true
		p.work = append(p.work, n)
	}
}

func (p *PointsTo) edge(from, to int) {
	if from == to {
		return
	}
	for _, s := range p.succs[from] {
		if s == to {
			return
		}
	}
	p.succs[from] = append(p.succs[from], to)
	for o := range p.pts[from] {
		p.addObj(to, o)
	}
}

func (p *PointsTo) addLoad(base int, sel string, dst int) {
	if base < 0 || dst < 0 {
		return
	}
	p.loads[base] = append(p.loads[base], ptDeref{sel, dst})
	for o := range p.pts[base] {
		p.edge(p.fieldNode(o, sel), dst)
	}
}

func (p *PointsTo) addStore(base int, sel string, src int) {
	if base < 0 || src < 0 {
		return
	}
	p.stores[base] = append(p.stores[base], ptDeref{sel, src})
	for o := range p.pts[base] {
		p.resolveStore(o, sel, src)
	}
}

func (p *PointsTo) resolveStore(o int, sel string, src int) {
	if p.objs[o].Kind == PTOutside {
		// Storing through memory the function does not own publishes the
		// value beyond the frame.
		p.markCarrier(src)
	}
	p.edge(src, p.fieldNode(o, sel))
}

func (p *PointsTo) addAddr(base int, sel string, dst int) {
	if base < 0 || dst < 0 {
		return
	}
	p.addrs[base] = append(p.addrs[base], ptAddr{sel, dst})
	for o := range p.pts[base] {
		p.addObj(dst, p.derivedObj(o, sel))
	}
}

// markCarrier makes node n an escape carrier: every object that reaches
// it, now or later, escapes.
func (p *PointsTo) markCarrier(n int) {
	if n < 0 || p.carrier[n] {
		return
	}
	p.carrier[n] = true
	for o := range p.pts[n] {
		p.escapeObj(o)
	}
}

func (p *PointsTo) escapeObj(o int) {
	obj := p.objs[o]
	if obj.escaped {
		return
	}
	obj.escaped = true
	// Everything reachable from an escaped object escapes with it.
	for _, fn := range p.objFields[o] {
		p.markCarrier(fn)
	}
	if obj.Kind == PTVarStorage {
		p.markCarrier(p.varNode(obj.Var))
	}
	if obj.base >= 0 {
		p.escapeObj(obj.base)
	}
	if obj.Kind == PTLit {
		// An escaped closure can run later: its captures escape.
		for _, v := range p.freeVars(obj.Lit) {
			p.markCarrier(p.varNode(v))
		}
	}
}

// freeVars lists the variables a literal references but does not
// declare, in source order.
func (p *PointsTo) freeVars(lit *ast.FuncLit) []*types.Var {
	var out []*types.Var
	seen := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			seen[v] = true
			out = append(out, v)
		}
		return true
	})
	return out
}

func (p *PointsTo) solve() {
	start := time.Now()
	for len(p.work) > 0 {
		n := p.work[0]
		p.work = p.work[1:]
		p.queued[n] = false
		delta := p.pend[n]
		p.pend[n] = nil
		for _, o := range delta {
			if p.carrier[n] {
				p.escapeObj(o)
			}
			for _, l := range p.loads[n] {
				p.edge(p.fieldNode(o, l.sel), l.node)
			}
			for _, s := range p.stores[n] {
				p.resolveStore(o, s.sel, s.node)
			}
			for _, a := range p.addrs[n] {
				p.addObj(a.dst, p.derivedObj(o, a.sel))
			}
			for _, inv := range p.invokes[n] {
				p.bindInvoke(inv, o)
			}
			for _, s := range p.succs[n] {
				p.addObj(s, o)
			}
		}
	}
	p.solved = true
	ptSolveNanos.Add(int64(time.Since(start)))
	ptSolveCount.Add(1)
}

// bindInvoke connects one freshly-arrived callee object of an indirect
// call to the call's argument and result nodes.
func (p *PointsTo) bindInvoke(inv *ptInvoke, o int) {
	obj := p.objs[o]
	switch obj.Kind {
	case PTFunc:
		sig, _ := obj.Fn.Type().(*types.Signature)
		p.applyCall(p.summaryFor(obj.Fn), sig, inv.call, inv.args, -1, inv.res)
	case PTLit:
		// Direct binding: arguments flow into the literal's parameters,
		// its return operands flow into the call's results.
		p.bindLitCall(obj.Lit, inv.args, inv.res)
	case PTOutside:
		for _, a := range inv.args {
			p.markCarrier(a)
		}
		for _, r := range inv.res {
			if r >= 0 {
				p.addObj(r, p.unknownObj())
			}
		}
	}
}

// summaryFor resolves a static callee's escape summary through the PT
// context (widened when absent).
func (p *PointsTo) summaryFor(fn *types.Func) *EscSummary {
	if p.pt == nil {
		return WidenedEscSummary
	}
	return p.pt.SummaryOf(fn)
}

// applyCall wires one resolved call: escapes on arguments per the
// summary, aliasing and freshness on results. recv < 0 means no
// receiver node.
func (p *PointsTo) applyCall(sum *EscSummary, sig *types.Signature, at ast.Node, args []int, recv int, res []int) {
	if sum == nil {
		sum = WidenedEscSummary
	}
	if sum.Widened {
		for _, a := range args {
			p.markCarrier(a)
		}
		p.markCarrier(recv)
		for _, r := range res {
			if r >= 0 {
				p.addObj(r, p.unknownObj())
			}
		}
		return
	}
	argForParam := func(pi int) []int {
		if sig == nil {
			if pi < len(args) {
				return []int{args[pi]}
			}
			return nil
		}
		n := sig.Params().Len()
		if sig.Variadic() && pi == n-1 {
			if pi < len(args) {
				return args[pi:]
			}
			return nil
		}
		if pi < len(args) {
			return []int{args[pi]}
		}
		return nil
	}
	for pi, esc := range sum.ParamEscapes {
		if !esc {
			continue
		}
		for _, a := range argForParam(pi) {
			p.markCarrier(a)
		}
	}
	if sum.RecvEscapes {
		p.markCarrier(recv)
	}
	for r, rn := range res {
		if rn < 0 {
			continue
		}
		// Callee-allocated memory is fresh at this call site.
		p.addObj(rn, p.allocObj(at, r))
		if r < len(sum.ResultOutside) && sum.ResultOutside[r] {
			p.addObj(rn, p.unknownObj())
		}
		if r < len(sum.ResultAlias) {
			for _, pi := range sum.ResultAlias[r] {
				for _, a := range argForParam(pi) {
					if a >= 0 {
						p.edge(a, rn)
					}
				}
			}
		}
		if r < len(sum.ResultAliasRecv) && sum.ResultAliasRecv[r] && recv >= 0 {
			p.edge(recv, rn)
		}
	}
}

// ---- constraint generation ----

func (p *PointsTo) genStmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			p.genStmt(st)
		}
	case *ast.LabeledStmt:
		p.genStmt(s.Stmt)
	case *ast.AssignStmt:
		p.genAssign(s.Lhs, s.Rhs)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, id := range vs.Names {
						lhs[i] = id
					}
					if len(vs.Values) > 0 {
						p.genAssign(lhs, vs.Values)
					} else {
						for _, id := range vs.Names {
							if v, ok := p.info.Defs[id].(*types.Var); ok {
								p.varNode(v) // materialize (seeds struct identity)
							}
						}
					}
				}
			}
		}
	case *ast.ExprStmt:
		p.genValue(s.X)
	case *ast.SendStmt:
		ch := p.genValue(s.Chan)
		v := p.genValue(s.Value)
		// The receiving end is unknowable in general: sent values escape.
		p.markCarrier(v)
		if ch >= 0 && v >= 0 {
			p.addStore(ch, "[*]", v)
		}
	case *ast.GoStmt:
		p.genGo(s.Call)
	case *ast.DeferStmt:
		p.genValue(s.Call) // runs in-frame at exit: a normal call
	case *ast.ReturnStmt:
		p.genReturn(s)
	case *ast.IfStmt:
		p.genStmt(s.Init)
		p.genValue(s.Cond)
		p.genStmt(s.Body)
		p.genStmt(s.Else)
	case *ast.ForStmt:
		p.genStmt(s.Init)
		if s.Cond != nil {
			p.genValue(s.Cond)
		}
		p.genStmt(s.Post)
		p.genStmt(s.Body)
	case *ast.RangeStmt:
		p.genRange(s)
	case *ast.SwitchStmt:
		p.genStmt(s.Init)
		if s.Tag != nil {
			p.genValue(s.Tag)
		}
		p.genStmt(s.Body)
	case *ast.TypeSwitchStmt:
		p.genTypeSwitch(s)
	case *ast.SelectStmt:
		p.genStmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			p.genValue(e)
		}
		for _, st := range s.Body {
			p.genStmt(st)
		}
	case *ast.CommClause:
		p.genStmt(s.Comm)
		for _, st := range s.Body {
			p.genStmt(st)
		}
	case *ast.IncDecStmt:
		p.genValue(s.X)
	case *ast.BranchStmt, *ast.EmptyStmt:
	}
}

func (p *PointsTo) genAssign(lhs, rhs []ast.Expr) {
	switch {
	case len(lhs) == len(rhs):
		for i := range rhs {
			rn := p.genValue(rhs[i])
			p.assignTo(lhs[i], rn)
		}
	case len(rhs) == 1:
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			res := p.genCall(call)
			for i, l := range lhs {
				if i < len(res) {
					p.assignTo(l, res[i])
				} else {
					p.assignTo(l, -1)
				}
			}
			return
		}
		// v, ok := m[k] / x.(T) / <-ch: the value lands in lhs[0].
		rn := p.genValue(rhs[0])
		p.assignTo(lhs[0], rn)
		for _, l := range lhs[1:] {
			p.assignTo(l, -1)
		}
	}
}

// assignTo stores rn into the location lhs names.
func (p *PointsTo) assignTo(lhs ast.Expr, rn int) {
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		if v, ok := p.info.ObjectOf(id).(*types.Var); ok && !v.IsField() {
			n := p.varNode(v)
			if rn >= 0 {
				p.edge(rn, n)
			}
			return
		}
	}
	if st, ok := lhs.(*ast.StarExpr); ok {
		// *p = x stores into p's pointees.
		bn := p.genValue(st.X)
		if bn >= 0 && rn >= 0 {
			p.addStore(bn, "", rn)
		}
		return
	}
	base, sel, ok := p.genRef(lhs)
	if !ok || rn < 0 {
		// Still evaluate the location's subexpressions for side effects.
		if !ok {
			p.genValue(lhs)
		}
		return
	}
	if sel == "" {
		p.edge(rn, base)
		return
	}
	p.addStore(base, sel, rn)
}

// genRef resolves a reference expression to (base node, selector): the
// location is the sel field cell of base's objects (sel "" means the
// base node itself — a plain variable). ok is false outside the
// reference language.
func (p *PointsTo) genRef(e ast.Expr) (base int, sel string, ok bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, okv := p.info.ObjectOf(x).(*types.Var); okv && !v.IsField() {
			return p.varNode(v), "", true
		}
	case *ast.SelectorExpr:
		s, okSel := p.info.Selections[x]
		if okSel && s.Kind() == types.FieldVal {
			b, bs, okb := p.genRef(x.X)
			if !okb {
				bn := p.genValue(x.X)
				if bn < 0 {
					return -1, "", false
				}
				return bn, "." + x.Sel.Name, true
			}
			if bs == "" && !ptrLike(p.info.TypeOf(x.X)) {
				// Direct field of a struct-valued location: compose.
				return b, "." + x.Sel.Name, true
			}
			if ptrLike(p.info.TypeOf(x.X)) {
				// Implicit deref: the base node's objects are the struct.
				return b2OrLoad(p, b, bs), "." + x.Sel.Name, true
			}
			return b2OrLoad2(p, b, bs), "." + x.Sel.Name, true
		}
		// Package-qualified variable.
		if v, okv := p.info.ObjectOf(x.Sel).(*types.Var); okv && !v.IsField() {
			return p.varNode(v), "", true
		}
	case *ast.IndexExpr:
		t := p.info.TypeOf(x.X)
		p.genValue(x.Index)
		if t != nil {
			switch t.Underlying().(type) {
			case *types.Slice, *types.Map:
				bn := p.genValue(x.X)
				if bn < 0 {
					return -1, "", false
				}
				return bn, "[*]", true
			case *types.Array:
				b, bs, okb := p.genRef(x.X)
				if okb {
					if bs != "" {
						return b2OrLoad2(p, b, bs), "[*]", true
					}
					return b, "[*]", true
				}
			case *types.Pointer:
				// *[N]T indexing.
				bn := p.genValue(x.X)
				if bn < 0 {
					return -1, "", false
				}
				return bn, "[*]", true
			}
		}
	}
	return -1, "", false
}

// b2OrLoad collapses a (base, sel) pair into the node holding the
// referenced value when the reference continues through a pointer.
func b2OrLoad(p *PointsTo, base int, sel string) int {
	if sel == "" {
		return base
	}
	t := p.tempNode()
	p.addLoad(base, sel, t)
	return t
}

// b2OrLoad2 is b2OrLoad for struct-valued bases: composing selectors
// keeps field sensitivity until the depth cap folds them together.
func b2OrLoad2(p *PointsTo, base int, sel string) int {
	return b2OrLoad(p, base, sel)
}

func (p *PointsTo) genReturn(s *ast.ReturnStmt) {
	var nodes []int
	if len(s.Results) == 0 {
		if p.sig != nil && len(p.litStack) == 0 {
			for i := 0; i < p.sig.Results().Len(); i++ {
				if v := p.sig.Results().At(i); v != nil && v.Name() != "" && v.Name() != "_" {
					nodes = append(nodes, p.varNode(v))
				} else {
					nodes = append(nodes, -1)
				}
			}
		}
	} else {
		for _, r := range s.Results {
			nodes = append(nodes, p.genValue(r))
		}
	}
	if len(p.litStack) > 0 {
		lit := p.litStack[len(p.litStack)-1]
		p.litRets[lit] = append(p.litRets[lit], nodes)
		return
	}
	p.retNodes = append(p.retNodes, nodes)
}

func (p *PointsTo) genRange(s *ast.RangeStmt) {
	xn := p.genValue(s.X)
	if s.Value != nil {
		t := p.tempNode()
		p.addLoad(xn, "[*]", t)
		p.assignTo(s.Value, t)
	}
	if s.Key != nil {
		if t := p.info.TypeOf(s.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				// Map keys are out of the field-path domain (matching
				// keylifetime): a pointer-typed key degrades to unknown.
				if kn := p.genValue(s.Key); kn >= 0 {
					p.addObj(kn, p.unknownObj())
				}
			}
		}
	}
	p.genStmt(s.Body)
}

func (p *PointsTo) genTypeSwitch(s *ast.TypeSwitchStmt) {
	p.genStmt(s.Init)
	var xn int = -1
	if as, ok := s.Assign.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
		if ta, ok := ast.Unparen(as.Rhs[0]).(*ast.TypeAssertExpr); ok {
			xn = p.genValue(ta.X)
		}
	} else if es, ok := s.Assign.(*ast.ExprStmt); ok {
		if ta, ok := ast.Unparen(es.X).(*ast.TypeAssertExpr); ok {
			xn = p.genValue(ta.X)
		}
	}
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		// Each clause may bind its own typed view of the subject.
		if v, ok := p.info.Implicits[cc].(*types.Var); ok && xn >= 0 {
			p.edge(xn, p.varNode(v))
		}
		for _, st := range cc.Body {
			p.genStmt(st)
		}
	}
}

func (p *PointsTo) genGo(call *ast.CallExpr) {
	// The goroutine runs concurrently: everything it can reach outlives
	// (escapes) the current activation's scopes.
	res := p.genCall(call)
	for _, r := range res {
		if r >= 0 {
			p.markCarrier(r)
		}
	}
	for _, a := range call.Args {
		p.markCarrier(p.nodeOf(a))
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		for _, v := range p.freeVars(lit) {
			p.markCarrier(p.varNode(v))
		}
	}
}

// nodeOf returns the already-generated node of e, if any.
func (p *PointsTo) nodeOf(e ast.Expr) int {
	if n, ok := p.exprNode[ast.Unparen(e)]; ok {
		return n
	}
	return -1
}

// genValue generates constraints for e and returns the node holding its
// value (-1 for values that cannot carry pointers).
func (p *PointsTo) genValue(e ast.Expr) int {
	n := p.genValueInner(e)
	if n >= 0 {
		p.exprNode[ast.Unparen(e)] = n
	}
	return n
}

func (p *PointsTo) genValueInner(e ast.Expr) int {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		switch obj := p.info.ObjectOf(x).(type) {
		case *types.Var:
			if obj.IsField() {
				return -1
			}
			return p.varNode(obj)
		case *types.Func:
			t := p.tempNode()
			p.addObj(t, p.funcObj(obj))
			return t
		}
		return -1
	case *ast.SelectorExpr:
		if s, ok := p.info.Selections[x]; ok && s.Kind() == types.FieldVal {
			base, sel, ok := p.genRef(x)
			if !ok {
				p.genValue(x.X)
				return -1
			}
			if sel == "" {
				return base
			}
			t := p.tempNode()
			p.addLoad(base, sel, t)
			return t
		}
		// Method value or package-qualified name.
		if fn, ok := p.info.Uses[x.Sel].(*types.Func); ok {
			p.genValue(x.X) // evaluate the receiver
			t := p.tempNode()
			p.addObj(t, p.funcObj(fn))
			return t
		}
		if v, ok := p.info.ObjectOf(x.Sel).(*types.Var); ok && !v.IsField() {
			return p.varNode(v)
		}
		p.genValue(x.X)
		return -1
	case *ast.StarExpr:
		bn := p.genValue(x.X)
		if bn < 0 {
			return -1
		}
		t := p.tempNode()
		p.addLoad(bn, "", t)
		return t
	case *ast.UnaryExpr:
		switch x.Op {
		case token.AND:
			return p.genAddr(x.X)
		case token.ARROW:
			ch := p.genValue(x.X)
			if ch < 0 {
				return -1
			}
			t := p.tempNode()
			p.addLoad(ch, "[*]", t)
			return t
		default:
			p.genValue(x.X)
			return -1
		}
	case *ast.CallExpr:
		res := p.genCall(x)
		if len(res) > 0 {
			return res[0]
		}
		return -1
	case *ast.CompositeLit:
		return p.genComposite(x)
	case *ast.FuncLit:
		p.genLit(x)
		t := p.tempNode()
		p.addObj(t, p.litObj(x))
		return t
	case *ast.IndexExpr:
		base, sel, ok := p.genRef(x)
		if !ok {
			p.genValue(x.X)
			p.genValue(x.Index)
			return -1
		}
		if sel == "" {
			return base
		}
		if t := p.info.TypeOf(e); t != nil && !pointerish(t) {
			return -1
		}
		t := p.tempNode()
		p.addLoad(base, sel, t)
		return t
	case *ast.IndexListExpr:
		// Generic instantiation: the value is the underlying function.
		return p.genValue(x.X)
	case *ast.SliceExpr:
		// A reslice shares the backing objects.
		return p.genValue(x.X)
	case *ast.TypeAssertExpr:
		return p.genValue(x.X)
	case *ast.BinaryExpr:
		p.genValue(x.X)
		p.genValue(x.Y)
		return -1
	case *ast.KeyValueExpr:
		return p.genValue(x.Value)
	}
	return -1
}

// genAddr yields a node holding &e.
func (p *PointsTo) genAddr(e ast.Expr) int {
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok {
		if v, ok := p.info.ObjectOf(id).(*types.Var); ok && !v.IsField() {
			p.varNode(v) // materialize storage identity
			t := p.tempNode()
			p.addObj(t, p.storageObj(v))
			return t
		}
	}
	if cl, ok := e.(*ast.CompositeLit); ok {
		return p.genComposite(cl)
	}
	if st, ok := e.(*ast.StarExpr); ok {
		// &*p is p.
		return p.genValue(st.X)
	}
	base, sel, ok := p.genRef(e)
	if !ok {
		p.genValue(e)
		t := p.tempNode()
		p.addObj(t, p.unknownObj())
		return t
	}
	if sel == "" {
		// &(*p) == p; &v handled above.
		return base
	}
	t := p.tempNode()
	p.addAddr(base, sel, t)
	return t
}

// genComposite allocates an object for a composite literal and stores
// its elements into the object's field cells. The value node of a
// struct-typed literal and the pointer &T{...} share the same object:
// by-value copies become may-aliases, which is sound for a may-analysis.
func (p *PointsTo) genComposite(cl *ast.CompositeLit) int {
	obj := p.allocObj(cl, 0)
	t := p.tempNode()
	p.addObj(t, obj)
	isStruct := false
	if typ := p.info.TypeOf(cl); typ != nil {
		_, isStruct = typ.Underlying().(*types.Struct)
	}
	for _, el := range cl.Elts {
		sel := "[*]"
		val := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			val = kv.Value
			if id, ok := kv.Key.(*ast.Ident); ok && isStruct {
				sel = "." + id.Name
			} else {
				p.genValue(kv.Key)
			}
		}
		vn := p.genValue(val)
		if vn >= 0 {
			p.addStore(t, sel, vn)
		}
	}
	return t
}

// genLit generates the literal body's constraints in its own return
// context. Captured variables need no special casing: they share the
// enclosing function's variable nodes.
func (p *PointsTo) genLit(lit *ast.FuncLit) {
	if _, done := p.litRets[lit]; done {
		return
	}
	p.litRets[lit] = nil
	p.litStack = append(p.litStack, lit)
	p.genStmt(lit.Body)
	p.litStack = p.litStack[:len(p.litStack)-1]
}

// genCall generates one call's constraints and returns its result nodes
// (length = result count; -1 entries for pointer-free results).
func (p *PointsTo) genCall(call *ast.CallExpr) []int {
	// Type conversion: the value passes through (possibly copied; []byte
	// conversions allocate, modeled as a fresh object plus the source —
	// again a may-over-approximation).
	if tv, ok := p.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) != 1 {
			return nil
		}
		an := p.genValue(call.Args[0])
		t := p.tempNode()
		if an >= 0 {
			p.edge(an, t)
		}
		p.addObj(t, p.allocObj(call, 0))
		return []int{t}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := p.info.Uses[id].(*types.Builtin); isB {
			return p.genBuiltin(id.Name, call)
		}
	}

	nres := p.resultCount(call)
	res := make([]int, nres)
	for i := range res {
		res[i] = p.tempNode()
	}

	// Static callee?
	var static *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		static, _ = p.info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		static, _ = p.info.Uses[fun.Sel].(*types.Func)
	}

	args := make([]int, len(call.Args))
	for i, a := range call.Args {
		args[i] = p.genValue(a)
	}

	if static != nil {
		recv := -1
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s, okSel := p.info.Selections[sel]; okSel && s.Kind() == types.MethodVal {
				recv = p.genValue(sel.X)
			}
		}
		sig, _ := static.Type().(*types.Signature)
		p.applyCall(p.summaryFor(static), sig, call, args, recv, res)
		return res
	}

	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// Immediately-invoked literal: bind directly.
		p.genLit(lit)
		p.bindLitCall(lit, args, res)
		return res
	}

	fn := p.genValue(call.Fun)
	if fn < 0 {
		for _, a := range args {
			p.markCarrier(a)
		}
		for _, r := range res {
			p.addObj(r, p.unknownObj())
		}
		return res
	}
	inv := &ptInvoke{call: call, args: args, res: res}
	p.invokes[fn] = append(p.invokes[fn], inv)
	for o := range p.pts[fn] {
		p.bindInvoke(inv, o)
	}
	return res
}

// bindLitCall binds a direct literal invocation's arguments and results.
func (p *PointsTo) bindLitCall(lit *ast.FuncLit, args, res []int) {
	i := 0
	if lit.Type.Params != nil {
		for _, f := range lit.Type.Params.List {
			if len(f.Names) == 0 {
				i++
				continue
			}
			for _, name := range f.Names {
				if i < len(args) && args[i] >= 0 {
					if v, ok := p.info.Defs[name].(*types.Var); ok {
						p.edge(args[i], p.varNode(v))
					}
				}
				i++
			}
		}
	}
	for _, ret := range p.litRets[lit] {
		for r, rn := range ret {
			if r < len(res) && rn >= 0 && res[r] >= 0 {
				p.edge(rn, res[r])
			}
		}
	}
}

func (p *PointsTo) resultCount(call *ast.CallExpr) int {
	tv, ok := p.info.Types[call]
	if !ok {
		return 0
	}
	if tup, ok := tv.Type.(*types.Tuple); ok {
		return tup.Len()
	}
	if tv.Type == nil || tv.Type == types.Typ[types.Invalid] {
		return 0
	}
	if _, isNoVal := tv.Type.(*types.Tuple); isNoVal {
		return 0
	}
	if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.Invalid {
		return 0
	}
	if tv.IsVoid() {
		return 0
	}
	return 1
}

func (p *PointsTo) genBuiltin(name string, call *ast.CallExpr) []int {
	switch name {
	case "append":
		if len(call.Args) == 0 {
			return nil
		}
		base := p.genValue(call.Args[0])
		t := p.tempNode()
		if base >= 0 {
			p.edge(base, t) // may write in place
		}
		p.addObj(t, p.allocObj(call, 0)) // or reallocate
		elems := call.Args[1:]
		spread := call.Ellipsis.IsValid()
		for i, a := range elems {
			an := p.genValue(a)
			if an < 0 {
				continue
			}
			if spread && i == len(elems)-1 {
				tmp := p.tempNode()
				p.addLoad(an, "[*]", tmp)
				p.addStore(t, "[*]", tmp)
				continue
			}
			p.addStore(t, "[*]", an)
		}
		return []int{t}
	case "copy":
		if len(call.Args) == 2 {
			dst := p.genValue(call.Args[0])
			src := p.genValue(call.Args[1])
			if dst >= 0 && src >= 0 {
				tmp := p.tempNode()
				p.addLoad(src, "[*]", tmp)
				p.addStore(dst, "[*]", tmp)
			}
		}
		return nil
	case "new", "make":
		for _, a := range call.Args[min(1, len(call.Args)):] {
			p.genValue(a)
		}
		t := p.tempNode()
		p.addObj(t, p.allocObj(call, 0))
		return []int{t}
	case "panic":
		// A panicking value may be recovered anywhere up the stack.
		for _, a := range call.Args {
			p.markCarrier(p.genValue(a))
		}
		return nil
	case "recover":
		t := p.tempNode()
		p.addObj(t, p.unknownObj())
		return []int{t}
	case "min", "max":
		first := -1
		for _, a := range call.Args {
			an := p.genValue(a)
			if first < 0 {
				first = an
			}
		}
		return []int{first}
	default: // len, cap, clear, delete, print, println, complex, real, imag
		for _, a := range call.Args {
			p.genValue(a)
		}
		return nil
	}
}

// ---- queries (valid after solving) ----

// objectsAt returns node n's points-to set in deterministic (creation)
// order.
func (p *PointsTo) objectsAt(n int) []*PTObject {
	if n < 0 {
		return nil
	}
	ids := make([]int, 0, len(p.pts[n]))
	for o := range p.pts[n] {
		ids = append(ids, o)
	}
	sort.Ints(ids)
	out := make([]*PTObject, len(ids))
	for i, id := range ids {
		out[i] = p.objs[id]
	}
	return out
}

// ObjectsOf returns the points-to set of an expression the generation
// pass evaluated. ok is false for expressions it never saw (or that
// carry no pointers).
func (p *PointsTo) ObjectsOf(e ast.Expr) ([]*PTObject, bool) {
	n := p.nodeOf(e)
	if n < 0 {
		return nil, false
	}
	return p.objectsAt(n), true
}

// VarPointsTo returns the points-to set of a variable's value.
func (p *PointsTo) VarPointsTo(v *types.Var) []*PTObject {
	if _, ok := p.nodes[nodeKey{v: v, obj: -1}]; !ok {
		return nil
	}
	return p.objectsAt(p.varNode(v))
}

// FuncTargets resolves a function-valued expression to its possible
// callees. complete is true when the set is non-empty and contains no
// outside (unresolvable) values — only then may an analyzer treat the
// target list as exhaustive and skip widening.
func (p *PointsTo) FuncTargets(e ast.Expr) (fns []*types.Func, lits []*ast.FuncLit, complete bool) {
	objs, ok := p.ObjectsOf(e)
	if !ok {
		return nil, nil, false
	}
	complete = len(objs) > 0
	for _, o := range objs {
		switch o.Kind {
		case PTFunc:
			fns = append(fns, o.Fn)
		case PTLit:
			lits = append(lits, o.Lit)
		default:
			complete = false
		}
	}
	return fns, lits, complete
}

// Summary extracts the function's escape contract after solving.
func (p *PointsTo) Summary() *EscSummary {
	sum := &EscSummary{}
	for _, po := range p.paramObjs {
		sum.ParamEscapes = append(sum.ParamEscapes, po >= 0 && p.objs[po].escaped)
	}
	sum.RecvEscapes = p.recvObj >= 0 && p.objs[p.recvObj].escaped
	nres := 0
	if p.sig != nil {
		nres = p.sig.Results().Len()
	}
	sum.ResultAlias = make([][]int, nres)
	sum.ResultAliasRecv = make([]bool, nres)
	sum.ResultOutside = make([]bool, nres)
	for _, ret := range p.retNodes {
		for r, rn := range ret {
			if r >= nres || rn < 0 {
				continue
			}
			for o := range p.pts[rn] {
				obj := p.objs[o]
				matched := false
				for pi, po := range p.paramObjs {
					if po == o {
						sum.ResultAlias[r] = appendUnique(sum.ResultAlias[r], pi)
						matched = true
					}
				}
				if o == p.recvObj {
					sum.ResultAliasRecv[r] = true
					matched = true
				}
				if !matched && obj.Kind == PTOutside {
					sum.ResultOutside[r] = true
				}
			}
		}
	}
	for r := range sum.ResultAlias {
		sort.Ints(sum.ResultAlias[r])
	}
	return sum
}

func appendUnique(xs []int, x int) []int {
	for _, v := range xs {
		if v == x {
			return xs
		}
	}
	return append(xs, x)
}

// ---- small type helpers ----

// capSel truncates an access path to two components; conflating deeper
// paths only adds aliases (sound for may-analyses).
func capSel(sel string) string {
	depth, i := 0, 0
	for i < len(sel) {
		if sel[i] == '.' {
			j := i + 1
			for j < len(sel) && sel[j] != '.' && sel[j] != '[' {
				j++
			}
			depth++
			if depth == 2 {
				return sel[:j]
			}
			i = j
			continue
		}
		if strings.HasPrefix(sel[i:], "[*]") {
			depth++
			if depth == 2 {
				return sel[:i+3]
			}
			i += 3
			continue
		}
		i++
	}
	return sel
}

// pointerish reports whether values of t can carry references the
// points-to analysis tracks.
func pointerish(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan,
		*types.Signature, *types.Interface:
		return true
	case *types.Struct, *types.Array:
		return true
	case *types.Basic:
		_ = u
		return false
	}
	return false
}

// structLike reports value types whose identity is their own storage.
func structLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Struct, *types.Array:
		return true
	}
	return false
}

// ptrLike reports reference-shaped types (implicit deref in selectors).
func ptrLike(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

func isPkgLevelVar(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}
