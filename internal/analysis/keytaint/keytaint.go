// Package keytaint is memlint's one key-taint engine: it works out
// which values may hold //memlint:source bytes, and which are released,
// for the keylifetime, keycopy and sealwindow analyzers, each of which
// is a property check over its facts.
//
// Facts are access paths, field-sensitive to two levels (k.D and
// k.Primes are distinct; xs[*] covers a slice's elements). A forward
// may-analysis over each body's CFG propagates taint through
// assignments, declarations, range bindings, comma-ok reads, copy() and
// calls; a value carries the taint of any part of it. A backward
// must-analysis proves which paths are released (a //memlint:sink,
// clear, a zeroizing callee, a return or a channel send) on every path
// to exit. Calls resolve through per-function summaries — tainted
// results with provenance chains, parameter and receiver flows,
// zeroized parameters — computed bottom-up over the call graph,
// memoized in the load session's summary store, iterated to a fixpoint
// for recursion cycles and widened for unknown bodies. Calls through
// function values resolve through syntactic bindings or, failing that,
// the dataflow package's points-to layer, solved per declaration on
// first use.
package keytaint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"memshield/internal/analysis"
	"memshield/internal/analysis/dataflow"
)

// A Path is one field-sensitive taint fact: a root variable plus a
// bounded access suffix — "" for the variable itself, ".D" for a struct
// member, "[*]" for the elements of a slice, composed to depth two
// ("k.D", "bufs[*]", "k.Parts[*]"). Field sensitivity is what keeps a
// zeroize of Key.D from falsely clearing Key.Primes: the two are
// distinct facts. Deeper accesses, map entries and dereferences have no
// path: a store through one taints the nearest base that has one, and a
// read through one is tainted when its base is, so taint is kept; no
// release through one is ever credited.
type Path struct {
	root *types.Var
	sel  string
}

func (p Path) String() string {
	if p.root == nil {
		return "<nil>"
	}
	return p.root.Name() + p.sel
}

// Facts is a set of paths (forward: may hold key material; backward:
// definitely released before exit).
type Facts = dataflow.Facts[Path]

// paramOriginPrefix tags taint origins that denote "flowed in from a
// parameter" during summary computation; summaries translate them into
// ParamFlows/RecvFlows entries instead of source chains.
const paramOriginPrefix = "\x00"

// A Summary is one function's interprocedural contract, computed
// bottom-up over the call graph and memoized in the load session's
// summary cache.
type Summary struct {
	// TaintedResults maps result index → provenance chain for results
	// that carry key material independent of the arguments (a marked
	// source, or a tainted local flowing out), e.g.
	// "rsakey.MarshalDER → p.wrapKey".
	TaintedResults map[int]string
	// ParamFlows maps parameter index → result indices the parameter's
	// bytes may flow into (callers propagate argument taint through).
	ParamFlows map[int][]int
	// RecvFlows lists result indices the receiver's state may flow into
	// (a Decoder handing out subslices of the buffer it wraps).
	RecvFlows []int
	// ZeroizedParams maps parameter index → true when the byte-slice
	// parameter is provably released on every path to exit — calling the
	// function IS a zeroizing sink for that argument.
	ZeroizedParams map[int]bool
	// Widened marks a conservative stub: body unavailable (stdlib,
	// interfaces, function values) or a recursion cycle mid-computation.
	// A widened callee taints every result from any tainted argument or
	// receiver and zeroizes nothing.
	Widened bool
}

func (s *Summary) equal(o *Summary) bool {
	if s.Widened != o.Widened || len(s.TaintedResults) != len(o.TaintedResults) ||
		len(s.ParamFlows) != len(o.ParamFlows) || len(s.ZeroizedParams) != len(o.ZeroizedParams) ||
		len(s.RecvFlows) != len(o.RecvFlows) {
		return false
	}
	for k, v := range s.TaintedResults {
		if o.TaintedResults[k] != v {
			return false
		}
	}
	for k, v := range s.ParamFlows {
		if len(o.ParamFlows[k]) != len(v) {
			return false
		}
	}
	for k, v := range s.ZeroizedParams {
		if o.ZeroizedParams[k] != v {
			return false
		}
	}
	return true
}

var widened = &Summary{Widened: true}

// A Checker is one analyzer pass's engine state: the summary
// computation's recursion bookkeeping and the per-declaration points-to
// solutions. Summaries themselves live in the session store, shared by
// every analyzer and pass.
type Checker struct {
	pass *analysis.Pass
	// inProgress guards the bottom-up summary walk against call-graph
	// cycles: a callee already on the stack answers with its current
	// provisional iterate (the widened stub on the first round); the
	// cycle's head then iterates to a fixpoint in Summary.
	inProgress map[string]bool
	// sawCycle marks functions whose summary computation hit themselves
	// on the stack — the ones worth iterating to fixpoint.
	sawCycle map[string]bool
	// provisional holds the current fixpoint iterate for functions whose
	// summaries are still being refined: the cycle head's published
	// iterate between rounds, and cycle members awaiting the head.
	// provDeps records, per provisional member, the unfinished ancestors
	// its iterate was computed under — reusing the iterate re-propagates
	// those into the demanding caller's frame so it too defers caching.
	provisional map[string]*Summary
	provDeps    map[string][]string
	// frames is the stack of in-progress-dependency records: hitting an
	// in-progress callee marks it in every open frame, so each function
	// knows whether its freshly computed summary rests on an unfinished
	// ancestor (and must stay provisional) or is final (and cacheable).
	frames []map[string]bool
	// local memo for summaries when the driver provides no session cache.
	local map[string]*Summary
	// litSums memoizes closure summaries per literal, checker-wide:
	// points-to resolution reaches literals from engines other than the
	// one that owns the enclosing body, and a closure cycle must hit the
	// pre-published stub no matter which engine asks.
	litSums map[*ast.FuncLit]*litSummary
	// ptc builds per-declaration points-to solutions; pts memoizes them
	// by declaration. Function-value calls the syntactic binding prescan
	// cannot see (var declarations, struct fields, values threaded
	// through locals) resolve through these instead of widening.
	ptc *dataflow.PT
	pts map[*ast.FuncDecl]*dataflow.PointsTo
}

// New builds the engine state for one pass, wiring the points-to
// context onto the same function-source lookup and session summary
// store the taint summaries use.
func New(pass *analysis.Pass) *Checker {
	c := &Checker{
		pass:        pass,
		inProgress:  map[string]bool{},
		sawCycle:    map[string]bool{},
		provisional: map[string]*Summary{},
		provDeps:    map[string][]string{},
		local:       map[string]*Summary{},
		litSums:     map[*ast.FuncLit]*litSummary{},
		pts:         map[*ast.FuncDecl]*dataflow.PointsTo{},
	}
	c.ptc = dataflow.NewPT(func(full string) (*ast.FuncDecl, *types.Info, bool) {
		if pass.LookupFunc == nil {
			return nil, nil, false
		}
		fs, ok := pass.LookupFunc(full)
		return fs.Decl, fs.Info, ok
	}, pass.Summaries)
	return c
}

// Func returns the engine for one of the pass's function declarations.
func (c *Checker) Func(decl *ast.FuncDecl) *Func {
	return newFunc(c, c.pass.TypesInfo, decl, nil)
}

// Escapes resolves fn's points-to escape summary.
func (c *Checker) Escapes(fn *types.Func) *dataflow.EscSummary { return c.ptc.SummaryOf(fn) }

func (c *Checker) cacheGet(key string) (*Summary, bool) {
	if c.pass.Summaries != nil {
		v, ok := c.pass.Summaries.Get(key)
		if !ok {
			return nil, false
		}
		s, ok := v.(*Summary)
		return s, ok
	}
	s, ok := c.local[key]
	return s, ok
}

func (c *Checker) cachePut(key string, s *Summary) {
	if c.pass.Summaries != nil {
		c.pass.Summaries.Put(key, s)
		return
	}
	c.local[key] = s
}

// PrettyName renders a function for diagnostics: package name + function
// name ("rsakey.MarshalDER", "scrub.Bytes"), dropping receiver noise.
func PrettyName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Name() + "." + fn.Name()
}

// Summary resolves fn's interprocedural summary: marker tables first,
// then a memoized bottom-up computation over its body, then the widened
// stub when no body is reachable. Marked sources and sinks contribute
// their declared facts even when the body is also analyzed.
func (c *Checker) Summary(fn *types.Func) *Summary {
	key := fn.FullName()
	if s, ok := c.cacheGet(key); ok {
		return s
	}
	if c.inProgress[key] {
		// Cycle edge: record the dependency in every open frame so each
		// ancestor knows its summary rests on an unfinished computation,
		// and answer with the current iterate (widened on round one).
		c.sawCycle[key] = true
		for _, fr := range c.frames {
			fr[key] = true
		}
		if s, ok := c.provisional[key]; ok {
			return s
		}
		return widened
	}
	if s, ok := c.provisional[key]; ok {
		// Finished-but-uncached cycle member: reuse this round's iterate
		// instead of recomputing its whole call subtree (which is
		// exponential along deep chains). The caller inherits the
		// member's unfinished dependencies so it defers caching too.
		for _, dk := range c.provDeps[key] {
			if !c.inProgress[dk] {
				continue
			}
			c.sawCycle[dk] = true
			for _, fr := range c.frames {
				fr[dk] = true
			}
		}
		return s
	}
	c.inProgress[key] = true
	defer delete(c.inProgress, key)

	frame := map[string]bool{}
	c.frames = append(c.frames, frame)
	sum := c.computeSummary(fn)
	c.frames = c.frames[:len(c.frames)-1]

	// A dependency blocks caching only while its computation is still
	// open on the stack: a finished-but-provisional cycle sibling in the
	// frame belongs to this function's own cycle, and the fixpoint below
	// re-resolves it every round.
	var depKeys []string
	for k := range frame {
		if k != key && c.inProgress[k] {
			depKeys = append(depKeys, k)
		}
	}
	if len(depKeys) > 0 {
		// Still inside a larger cycle (a mutual-recursion member below
		// its head): publish the iterate provisionally and let the head
		// drive the fixpoint. The member is recomputed cleanly — against
		// the head's now-cached summary — on its next direct demand.
		c.provisional[key] = sum
		c.provDeps[key] = depKeys
		return sum
	}
	// Fixpoint iteration for recursion cycles this function heads (its
	// own frame carries no unfinished ancestors): the first computation
	// saw the widened stub for in-cycle calls; republishing the iterate
	// and recomputing until stable credits releases and flows through
	// the recursion. The taint/release domains are finite; the round cap
	// bounds provenance-chain churn. Non-recursive functions (the
	// overwhelming majority) skip the iteration entirely.
	if c.sawCycle[key] {
		for range 8 {
			clear(c.provisional)
			clear(c.provDeps)
			c.provisional[key] = sum
			next := c.computeSummary(fn)
			if next.equal(sum) {
				sum = next
				break
			}
			sum = next
		}
		clear(c.provisional)
		clear(c.provDeps)
	}
	c.cachePut(key, sum)
	// A cached summary is no longer an unfinished dependency: scrub it
	// from any frames still open above us.
	for _, fr := range c.frames {
		delete(fr, key)
	}
	return sum
}

// computeSummary builds one function's summary from markers plus one
// intraprocedural pass over its body (when available).
func (c *Checker) computeSummary(fn *types.Func) *Summary {
	sum := &Summary{
		TaintedResults: map[int]string{},
		ParamFlows:     map[int][]int{},
		ZeroizedParams: map[int]bool{},
	}
	name := fn.FullName()
	marked := false
	if idx, ok := c.pass.Sources[name]; ok {
		sum.TaintedResults[idx] = PrettyName(fn)
		marked = true
	}
	if idx, ok := c.pass.Sinks[name]; ok {
		sum.ZeroizedParams[idx] = true
		marked = true
	}
	var fi analysis.FuncSource
	ok := false
	if c.pass.LookupFunc != nil {
		fi, ok = c.pass.LookupFunc(name)
	}
	if !ok {
		if marked {
			return sum
		}
		return widened
	}
	newFunc(c, fi.Info, fi.Decl, nil).analyzeForSummary(sum)
	return sum
}

// A Func is the engine for one function or function-literal body under
// one package's type info: its CFG, forward taint and backward release.
// It is built fresh per body.
type Func struct {
	c    *Checker
	info *types.Info
	// decl is the enclosing declaration, whose points-to solution the
	// body's function-value calls resolve against.
	decl *ast.FuncDecl
	cfg  *dataflow.CFG
	// released caches ReleasedAfter's backward facts, per node.
	released map[ast.Node]Facts

	// bindings records function values assigned to local variables (a
	// method value, a named function, a closure literal), so calls
	// through the variable resolve. Taint uses the union of bindings;
	// release credit requires the binding to be unambiguous.
	bindings map[*types.Var][]binding
	// writes counts assignments per root variable; a deferred closure's
	// zeroize of a capture is only trusted when the capture is
	// single-assignment (the closure reads the variable at exit time,
	// not at registration).
	writes map[*types.Var]int
	// origins maps each tainted path to its provenance chains (first few
	// distinct gens, in gen order).
	origins map[Path][]string
	// namedResults are the declared result variables, for bare returns.
	namedResults []Path
	// results maps a named-result variable to its index.
	resultIndex map[*types.Var]int
	sig         *types.Signature
	// opaque makes every call's byte-slice results tainted when any
	// argument is (see Opaque).
	opaque bool
}

type binding struct {
	fn  *types.Func
	lit *ast.FuncLit
}

// litSummary is the closure analogue of Summary: which captured
// variables the literal zeroizes on all its paths, and whether its
// results carry key material.
type litSummary struct {
	zeroizedCaptures []Path
	taintedResults   map[int]string
}

// newFunc builds the engine for decl's body, or for lit's when lit is
// non-nil.
func newFunc(c *Checker, info *types.Info, decl *ast.FuncDecl, lit *ast.FuncLit) *Func {
	en := &Func{
		c:           c,
		info:        info,
		decl:        decl,
		bindings:    map[*types.Var][]binding{},
		writes:      map[*types.Var]int{},
		origins:     map[Path][]string{},
		resultIndex: map[*types.Var]int{},
	}
	var body *ast.BlockStmt
	var ftyp *ast.FuncType
	if lit == nil {
		body, ftyp = decl.Body, decl.Type
		if fn, ok := info.Defs[decl.Name].(*types.Func); ok {
			en.sig = fn.Type().(*types.Signature)
		}
	} else {
		body, ftyp = lit.Body, lit.Type
		if tv, ok := info.Types[lit]; ok {
			en.sig, _ = tv.Type.(*types.Signature)
		}
	}
	if ftyp.Results != nil {
		idx := 0
		for _, field := range ftyp.Results.List {
			if len(field.Names) == 0 {
				idx++
				continue
			}
			for _, n := range field.Names {
				if v, ok := info.Defs[n].(*types.Var); ok {
					en.namedResults = append(en.namedResults, Path{v, ""})
					en.resultIndex[v] = idx
				}
				idx++
			}
		}
	}
	en.cfg = dataflow.New(body)
	en.prescan(body)
	return en
}

// Lit returns the engine for a function literal inside en's body, with
// en's call treatment.
func (en *Func) Lit(lit *ast.FuncLit) *Func {
	sub := newFunc(en.c, en.info, en.decl, lit)
	sub.opaque = en.opaque
	return sub
}

// Opaque returns the engine for en's body with opaque calls: a call's
// byte-slice results count as tainted whenever an argument is, whatever
// the callee's summary proves. Summaries see key bytes leave a callee
// only through its results, so a helper that routes them through a
// buffer object, a map or a closure's parameters returns a clean result;
// a proof that nothing escapes cannot take that on trust. Summaries
// themselves are always computed without it.
func (en *Func) Opaque() *Func {
	o := *en
	o.opaque = true
	return &o
}

// Reach returns every fact the forward taint reaches anywhere in en's
// body, statement order ignored: the transfer runs over every node,
// nested function literals included, under one set until it stops
// growing. A check that reads its facts from Reach holds for every
// ordering of the body's statements, so a store that precedes the copy
// filling its buffer still sees the key bytes.
func (en *Func) Reach() Facts {
	fs := Facts{}
	for {
		size := len(fs)
		for _, blk := range en.cfg.Blocks {
			for _, n := range blk.Nodes {
				en.taintTransfer(n, fs)
			}
		}
		if len(fs) == size {
			return fs
		}
	}
}

// Nodes calls visit at every CFG node of en's body and, under their own
// engines, at every node of the function literals inside it.
func (en *Func) Nodes(visit func(en *Func, n ast.Node)) {
	for _, blk := range en.cfg.Blocks {
		for _, n := range blk.Nodes {
			visit(en, n)
			dataflow.Inspect(n, func(m ast.Node) bool {
				lit, ok := m.(*ast.FuncLit)
				if ok {
					en.Lit(lit).Nodes(visit)
				}
				return !ok
			})
		}
	}
}

// PointsTo returns the points-to solution of en's enclosing declaration,
// solved on first use and memoized per declaration: most bodies never
// call through a function value and never need one. Closure bodies
// share the enclosing declaration's solution: Analyze generates
// constraints for every literal in the body, so expressions inside a
// closure resolve against the same node set.
func (en *Func) PointsTo() *dataflow.PointsTo {
	pt, ok := en.c.pts[en.decl]
	if !ok {
		pt = en.c.ptc.Analyze(en.decl, en.info)
		en.c.pts[en.decl] = pt
	}
	return pt
}

// Walk runs the forward taint over en's body from seed and calls visit at
// every CFG node with the facts in force before it. Function literals
// are bodies of their own, walked the same way: a deferred literal under
// the facts at function exit, where it runs (a closure writing through a
// value taken after the defer statement is invisible at registration);
// any other literal under the facts where it occurs. visit must not
// descend into literals itself.
func (en *Func) Walk(seed Facts, visit func(en *Func, n ast.Node, fs Facts)) {
	ins := dataflow.Forward(en.cfg, seed, en.taintTransfer)
	deferred := map[*ast.FuncLit]bool{}
	for _, d := range en.cfg.Defers {
		if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
			deferred[lit] = true
		}
	}
	dataflow.Walk(en.cfg, ins, en.taintTransfer, func(n ast.Node, fs Facts) {
		visit(en, n, fs)
		dataflow.Inspect(n, func(m ast.Node) bool {
			lit, ok := m.(*ast.FuncLit)
			if ok && !deferred[lit] {
				en.Lit(lit).Walk(fs.Clone(), visit)
			}
			return !ok
		})
	})
	exit := ins[en.cfg.Exit.Index]
	for _, d := range en.cfg.Defers {
		if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
			en.Lit(lit).Walk(exit.Clone(), visit)
		}
	}
}

// ReleasedAfter returns the paths released on every path from just after
// n to the exit of en's body. The backward pass runs on first use.
func (en *Func) ReleasedAfter(n ast.Node) Facts {
	if en.released == nil {
		en.released = map[ast.Node]Facts{}
		outs := dataflow.Backward(en.cfg, nil, en.releaseTransfer)
		dataflow.WalkBackward(en.cfg, outs, en.releaseTransfer, func(m ast.Node, fs Facts) {
			en.released[m] = fs.Clone()
		})
	}
	return en.released[n]
}

// prescan records function-value bindings and per-variable write counts
// for the whole body, closures included (both are flow-insensitive
// over-approximations consumed conservatively).
func (en *Func) prescan(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			v, ok := en.info.ObjectOf(id).(*types.Var)
			if !ok {
				continue
			}
			en.writes[v]++
			if len(as.Lhs) != len(as.Rhs) {
				continue
			}
			switch rhs := ast.Unparen(as.Rhs[i]).(type) {
			case *ast.FuncLit:
				en.bindings[v] = append(en.bindings[v], binding{lit: rhs})
			case *ast.Ident:
				if fn, ok := en.info.Uses[rhs].(*types.Func); ok {
					en.bindings[v] = append(en.bindings[v], binding{fn: fn})
				}
			case *ast.SelectorExpr:
				if fn, ok := en.info.Uses[rhs.Sel].(*types.Func); ok {
					en.bindings[v] = append(en.bindings[v], binding{fn: fn})
				}
			}
		}
		return true
	})
}

// PathOf resolves an expression to its access path. The second result is
// false for expressions outside the path language (pointer derefs, map
// entries, calls, paths deeper than two components).
func (en *Func) PathOf(e ast.Expr) (Path, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := en.info.ObjectOf(x).(*types.Var); ok && !v.IsField() {
			return Path{v, ""}, true
		}
	case *ast.SelectorExpr:
		if sel, ok := en.info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			base, ok := en.PathOf(x.X)
			if !ok || pathDepth(base.sel) >= 2 {
				return Path{}, false
			}
			return Path{base.root, base.sel + "." + x.Sel.Name}, true
		}
		// Package-qualified variable (pkg.Var).
		if v, ok := en.info.ObjectOf(x.Sel).(*types.Var); ok && !v.IsField() {
			return Path{v, ""}, true
		}
	case *ast.IndexExpr:
		// Map entries are out of the domain: a release through one key
		// must not credit a store through another, and there is no
		// bounded way to tell keys apart.
		if t := en.info.TypeOf(x.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				return Path{}, false
			}
		}
		base, ok := en.PathOf(x.X)
		if !ok {
			return Path{}, false
		}
		if strings.HasSuffix(base.sel, "[*]") {
			return base, true
		}
		if pathDepth(base.sel) >= 2 {
			return Path{}, false
		}
		return Path{base.root, base.sel + "[*]"}, true
	case *ast.SliceExpr:
		return en.PathOf(x.X) // a reslice shares the backing array
	}
	return Path{}, false
}

func pathDepth(sel string) int {
	return strings.Count(sel, ".") + strings.Count(sel, "[*]")
}

// lookup reports whether p or any enclosing prefix of p is in fs (a
// wholesale-tainted struct taints every member read).
func lookup(fs Facts, p Path) (Path, bool) {
	for {
		if fs.Has(p) {
			return p, true
		}
		i := strings.LastIndexAny(p.sel, ".[")
		if i < 0 {
			return Path{}, false
		}
		p.sel = p.sel[:i]
	}
}

// partOf returns the least tainted path strictly inside p — a member or
// the elements of p — so that the answer does not depend on map order.
func partOf(fs Facts, p Path) (Path, bool) {
	var best Path
	found := false
	for q := range fs {
		rest, ok := strings.CutPrefix(q.sel, p.sel)
		if q.root != p.root || !ok || rest == "" || rest[0] != '.' && rest[0] != '[' || found && q.sel >= best.sel {
			continue
		}
		best, found = q, true
	}
	return best, found
}

// addOrigin records a provenance chain for a freshly tainted path
// (bounded, first-gen-wins per distinct chain).
func (en *Func) addOrigin(p Path, origin string) {
	if origin == "" {
		return
	}
	chains := en.origins[p]
	for _, c := range chains {
		if c == origin {
			return
		}
	}
	if len(chains) < 4 {
		en.origins[p] = append(chains, origin)
	}
}

// originOf returns the recorded provenance for a tainted path,
// preferring a source chain over a parameter-flow tag.
func (en *Func) originOf(p Path) string {
	chains := en.origins[p]
	for _, c := range chains {
		if !strings.HasPrefix(c, paramOriginPrefix) {
			return c
		}
	}
	if len(chains) > 0 {
		return chains[0]
	}
	return "key material"
}

// Tainted reports whether e may carry key material under fs, with the
// provenance chain of the first taint that reaches it. A value is
// tainted when it, an enclosing value or any part of it is: a struct
// whose field holds key bytes carries them, and so does a byte slice
// whose elements are tainted. Reads the path language cannot name (map
// entries, fields deeper than two levels) are tainted when their base
// is.
func (en *Func) Tainted(e ast.Expr, fs Facts) (string, bool) {
	if p, ok := en.PathOf(e); ok {
		if hit, ok := lookup(fs, p); ok {
			return en.originOf(hit), true
		}
		if part, ok := partOf(fs, p); ok {
			return en.originOf(part), true
		}
		return "", false
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.IndexExpr:
		return en.Tainted(x.X, fs)
	case *ast.SliceExpr:
		return en.Tainted(x.X, fs)
	case *ast.SelectorExpr:
		if sel, ok := en.info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			return en.Tainted(x.X, fs)
		}
	case *ast.TypeAssertExpr:
		return en.Tainted(x.X, fs)
	case *ast.CallExpr:
		rt := en.ResultTaint(x, fs)
		if o, ok := rt[0]; ok {
			return o, true
		}
		return "", false
	case *ast.BinaryExpr:
		if o, ok := en.Tainted(x.X, fs); ok {
			return o, true
		}
		return en.Tainted(x.Y, fs)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if o, ok := en.Tainted(el, fs); ok {
				return o, true
			}
		}
	case *ast.UnaryExpr:
		return en.Tainted(x.X, fs)
	case *ast.StarExpr:
		return en.Tainted(x.X, fs)
	}
	return "", false
}

// receiverExpr returns the receiver expression of a method call, or nil.
func receiverExpr(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// FuncTargets resolves a call-site function expression through the
// points-to layer: the named functions and literals the expression may
// hold, and whether that target set is provably complete.
func (en *Func) FuncTargets(e ast.Expr) ([]*types.Func, []*ast.FuncLit, bool) {
	return en.PointsTo().FuncTargets(e)
}

// targets resolves a function-valued call expression: the syntactic
// bindings of a local when the prescan saw any, taken as complete, else
// the points-to layer's target set (var declarations, struct-field
// function values, values threaded through locals) with its
// completeness bit.
func (en *Func) targets(fun ast.Expr) ([]*types.Func, []*ast.FuncLit, bool) {
	if p, ok := en.PathOf(fun); ok && p.sel == "" {
		if bs := en.bindings[p.root]; len(bs) > 0 {
			var fns []*types.Func
			var lits []*ast.FuncLit
			for _, b := range bs {
				if b.fn != nil {
					fns = append(fns, b.fn)
				} else if b.lit != nil {
					lits = append(lits, b.lit)
				}
			}
			return fns, lits, true
		}
	}
	return en.FuncTargets(fun)
}

// calleeSummaries resolves a call's possible targets for taint: the
// static callee or every function-valued target. Taint is a
// may-analysis, so an incomplete target set contributes the targets it
// did resolve plus the widened stub for the rest; only release credit
// needs completeness. An empty slice means "unknown" (treated as
// widened).
func (en *Func) calleeSummaries(call *ast.CallExpr) []*Summary {
	if fn := analysis.FuncObj(en.info, call); fn != nil {
		return []*Summary{en.c.Summary(fn)}
	}
	fns, lits, complete := en.targets(call.Fun)
	var out []*Summary
	for _, fn := range fns {
		out = append(out, en.c.Summary(fn))
	}
	for _, lit := range lits {
		out = append(out, &Summary{TaintedResults: en.litSummaryOf(lit).taintedResults})
	}
	if !complete {
		out = append(out, widened)
	}
	return out
}

// ResultTaint computes which results of a call may carry key material
// under fs, mapping result index → provenance chain.
func (en *Func) ResultTaint(call *ast.CallExpr, fs Facts) map[int]string {
	out := map[int]string{}
	if analysis.IsConversion(en.info, call) && len(call.Args) == 1 {
		if o, ok := en.Tainted(call.Args[0], fs); ok {
			out[0] = o
		}
		return out
	}
	switch analysis.BuiltinName(en.info, call) {
	case "append":
		for _, a := range call.Args {
			if o, ok := en.Tainted(a, fs); ok {
				out[0] = o
				return out
			}
		}
		return out
	case "":
	default:
		return out // other builtins never yield key material
	}
	sums := en.calleeSummaries(call)
	if len(sums) == 0 {
		sums = []*Summary{widened}
	}
	callee := "call"
	if fn := analysis.FuncObj(en.info, call); fn != nil {
		callee = PrettyName(fn)
	}
	for _, sum := range sums {
		for idx, origin := range sum.TaintedResults {
			if _, ok := out[idx]; !ok {
				out[idx] = origin
			}
		}
		if sum.Widened {
			// Unknown callee: any tainted argument or receiver may flow
			// into every result.
			origin, tainted := "", false
			for _, a := range call.Args {
				if o, ok := en.Tainted(a, fs); ok {
					origin, tainted = o, true
					break
				}
			}
			if !tainted {
				if rx := receiverExpr(call); rx != nil {
					if o, ok := en.Tainted(rx, fs); ok {
						origin, tainted = o, true
					}
				}
			}
			if tainted {
				if _, ok := out[0]; !ok {
					out[0] = origin + " via " + callee
				}
			}
			continue
		}
		for pi, results := range sum.ParamFlows {
			if pi >= len(call.Args) {
				continue
			}
			if o, ok := en.Tainted(call.Args[pi], fs); ok {
				for _, ri := range results {
					if _, have := out[ri]; !have {
						out[ri] = o + " via " + callee
					}
				}
			}
		}
		if len(sum.RecvFlows) > 0 {
			if rx := receiverExpr(call); rx != nil {
				if o, ok := en.Tainted(rx, fs); ok {
					for _, ri := range sum.RecvFlows {
						if _, have := out[ri]; !have {
							out[ri] = o + " via " + callee
						}
					}
				}
			}
		}
	}
	if en.opaque {
		for _, a := range call.Args {
			o, ok := en.Tainted(a, fs)
			if !ok {
				continue
			}
			for ri, t := range en.resultTypes(call) {
				if _, have := out[ri]; !have && isByteSlice(t) {
					out[ri] = o + " via " + callee
				}
			}
			break
		}
	}
	return out
}

// resultTypes returns the types of a call's results.
func (en *Func) resultTypes(call *ast.CallExpr) []types.Type {
	tv, ok := en.info.Types[call]
	if !ok {
		return nil
	}
	tup, ok := tv.Type.(*types.Tuple)
	if !ok {
		return []types.Type{tv.Type}
	}
	ts := make([]types.Type, tup.Len())
	for i := range ts {
		ts[i] = tup.At(i).Type()
	}
	return ts
}

// taintTransfer is the forward may-transfer: assignments, declarations
// and range bindings propagate key material along paths. It is gen-only
// (monotone); provenance is recorded on first gen.
func (en *Func) taintTransfer(n ast.Node, fs Facts) {
	visit := func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			en.taintAssign(m.Lhs, m.Rhs, fs)
		case *ast.GenDecl:
			for _, spec := range m.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, id := range vs.Names {
						lhs[i] = id
					}
					en.taintAssign(lhs, vs.Values, fs)
				}
			}
		case *ast.RangeStmt:
			// for _, v := range xs with xs (or its elements) tainted
			// binds tainted values to v.
			if o, ok := en.Tainted(m.X, fs); ok && m.Value != nil {
				en.gen(m.Value, o, fs)
			}
		case *ast.CallExpr:
			// copy(dst, src) moves the bytes themselves: a buffer filled
			// from key material holds key material.
			if len(m.Args) == 2 && analysis.BuiltinName(en.info, m) == "copy" {
				if o, ok := en.Tainted(m.Args[1], fs); ok {
					en.gen(m.Args[0], o, fs)
				}
			}
		}
		return true
	}
	if r, ok := n.(*ast.RangeStmt); ok {
		visit(r) // Inspect visits a range node's operands, not the statement
	}
	dataflow.Inspect(n, visit)
}

// gen taints the path e names with the given origin. A store the path
// language cannot name (a map entry, a dereference, a field deeper than
// two levels) taints the nearest base it can name instead.
func (en *Func) gen(e ast.Expr, origin string, fs Facts) {
	for {
		if p, ok := en.PathOf(e); ok {
			fs.Add(p)
			en.addOrigin(p, origin)
			return
		}
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return
		}
	}
}

func (en *Func) taintAssign(lhs, rhs []ast.Expr, fs Facts) {
	switch {
	case len(lhs) == len(rhs):
		for i, r := range rhs {
			if o, ok := en.Tainted(r, fs); ok {
				en.gen(lhs[i], o, fs)
			}
		}
	case len(rhs) == 1:
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			for idx, o := range en.ResultTaint(call, fs) {
				if idx < len(lhs) {
					en.gen(lhs[idx], o, fs)
				}
			}
			return
		}
		// v, ok := m[k], x.(T) or <-ch: the value is the operand's.
		if o, ok := en.Tainted(rhs[0], fs); ok {
			en.gen(lhs[0], o, fs)
		}
	}
}

// releaseArgs yields the paths a call releases: arguments at marked or
// summary-proven zeroizing positions, clear()'s operand, and — for an
// unambiguous closure binding — the captures the closure zeroizes.
func (en *Func) releaseArgs(call *ast.CallExpr, add func(Path)) {
	if analysis.BuiltinName(en.info, call) == "clear" && len(call.Args) == 1 {
		if p, ok := en.PathOf(call.Args[0]); ok {
			add(p)
		}
		return
	}
	addParam := func(idx int) {
		if idx < len(call.Args) {
			if p, ok := en.PathOf(call.Args[idx]); ok {
				add(p)
			}
		}
	}
	fn := analysis.FuncObj(en.info, call)
	if fn == nil {
		// Function-valued call: release credit only for a complete,
		// unambiguous target set — with several possible targets we
		// cannot prove which runs.
		fns, lits, complete := en.targets(call.Fun)
		if !complete || len(fns)+len(lits) != 1 {
			return
		}
		if len(lits) == 1 {
			for _, cap := range en.litSummaryOf(lits[0]).zeroizedCaptures {
				add(cap)
			}
			return
		}
		fn = fns[0]
	}
	for idx, z := range en.c.Summary(fn).ZeroizedParams {
		if z {
			addParam(idx)
		}
	}
}

// releaseTransfer is the backward must-transfer: a fact "p is released
// on every path from here to exit" is generated by sink calls, by
// returning p to the caller (ownership transfer), and by deferred sinks
// (registered here, guaranteed to run at exit); it is killed by a full
// reassignment of p — the release below refers to the new value, not
// the one p held above. Function-literal bodies are NOT descended into:
// a sink inside a closure only counts through an analyzed call to it.
func (en *Func) releaseTransfer(n ast.Node, fs Facts) {
	// Kill first (reverse execution order: the assignment happens after
	// its RHS is evaluated, so walking backward it is undone first).
	if as, ok := n.(*ast.AssignStmt); ok {
		// Alias credit: after `b := a` (or `a = a[:n]`) both sides share a
		// backing array, so a release guaranteed below the assignment also
		// releases the right-hand side's array. Collect before the kill.
		var alias []Path
		if len(as.Lhs) == len(as.Rhs) {
			for i := range as.Lhs {
				if lp, ok := en.PathOf(as.Lhs[i]); ok && fs.Has(lp) {
					if rp, ok := en.PathOf(as.Rhs[i]); ok {
						alias = append(alias, rp)
					}
				}
			}
		}
		for _, l := range as.Lhs {
			switch ast.Unparen(l).(type) {
			case *ast.Ident, *ast.SelectorExpr:
				if p, ok := en.PathOf(l); ok {
					for q := range fs {
						if q.root == p.root && strings.HasPrefix(q.sel, p.sel) {
							fs.Remove(q)
						}
					}
				}
			}
		}
		for _, p := range alias {
			fs.Add(p)
		}
	}
	switch s := n.(type) {
	case *ast.ReturnStmt:
		if len(s.Results) == 0 {
			for _, p := range en.namedResults {
				fs.Add(p)
			}
		}
		for _, r := range s.Results {
			en.creditTransfer(r, fs)
		}
	case *ast.SendStmt:
		// A channel send transfers ownership to the receiver end, exactly
		// like returning: the value leaves this function's reach alive and
		// the consumer owns the release.
		en.creditTransfer(s.Value, fs)
	case *ast.DeferStmt:
		// A deferred direct sink call releases the value its argument
		// held at registration; a deferred closure zeroizing a capture
		// releases it only if the capture is single-assignment (the
		// closure reads the variable at exit time).
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			for _, cap := range en.litSummaryOf(lit).zeroizedCaptures {
				if en.writes[cap.root] <= 1 {
					fs.Add(cap)
				}
			}
			return
		}
		en.releaseArgs(s.Call, func(p Path) { fs.Add(p) })
		return
	}
	en.walkNoLit(n, func(m ast.Node) {
		if call, ok := m.(*ast.CallExpr); ok {
			en.releaseArgs(call, func(p Path) { fs.Add(p) })
		}
	})
}

// creditTransfer marks the paths an ownership-transferring operand
// (return result, channel send) hands off: the direct Path, and — for a
// composite literal or an address-of wrapper — every leaf path packed
// into the transferred value, so `return &Key{D: d}` credits d just as
// `return d` would.
func (en *Func) creditTransfer(e ast.Expr, fs Facts) {
	if p, ok := en.PathOf(e); ok {
		fs.Add(p)
		return
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			en.creditTransfer(el, fs)
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			en.creditTransfer(x.X, fs)
		}
	}
}

// walkNoLit walks a node's subtree without entering function literals.
func (en *Func) walkNoLit(n ast.Node, fn func(ast.Node)) {
	dataflow.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if m != nil {
			fn(m)
		}
		return true
	})
}

// litSummaryOf computes (and memoizes checker-wide) which captured
// variables a function literal zeroizes on all its paths, and whether
// its results carry key material.
func (en *Func) litSummaryOf(lit *ast.FuncLit) *litSummary {
	if ls, ok := en.c.litSums[lit]; ok {
		return ls
	}
	ls := &litSummary{taintedResults: map[int]string{}}
	en.c.litSums[lit] = ls // pre-publish: a closure cycle widens to "no effect"

	sub := newFunc(en.c, en.info, en.decl, lit)
	outs := dataflow.Backward(sub.cfg, nil, sub.releaseTransfer)
	entry := entryFacts(sub.cfg, outs, sub.releaseTransfer)
	var caps []Path
	for p := range entry {
		if p.root.Pos() < lit.Pos() || p.root.Pos() > lit.End() {
			caps = append(caps, p)
		}
	}
	sort.Slice(caps, func(i, j int) bool { return caps[i].String() < caps[j].String() })
	ls.zeroizedCaptures = caps

	ins := dataflow.Forward(sub.cfg, nil, sub.taintTransfer)
	sub.collectResultTaint(ins, ls.taintedResults)
	return ls
}

// entryFacts folds the entry block's nodes backward onto its out set,
// yielding the facts in force at the very start of the function — for
// the release analysis, the set of paths released on every path from
// entry to exit.
func entryFacts(cfg *dataflow.CFG, outs []Facts, transfer dataflow.Transfer[Path]) Facts {
	fs := outs[cfg.Entry.Index].Clone()
	for i := len(cfg.Entry.Nodes) - 1; i >= 0; i-- {
		transfer(cfg.Entry.Nodes[i], fs)
	}
	return fs
}

// collectResultTaint walks every return statement under the forward
// facts in force there and records which results may carry key material.
func (en *Func) collectResultTaint(ins []Facts, out map[int]string) {
	dataflow.Walk(en.cfg, ins, en.taintTransfer, func(n ast.Node, fs Facts) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		if len(ret.Results) == 0 {
			for _, p := range en.namedResults {
				if hit, ok := lookup(fs, p); ok {
					idx := en.resultIndex[p.root]
					if _, have := out[idx]; !have {
						out[idx] = en.originOf(hit)
					}
				}
			}
			return
		}
		for i, r := range ret.Results {
			if o, ok := en.Tainted(r, fs); ok {
				if _, have := out[i]; !have {
					out[i] = o
				}
			}
		}
	})
}

// analyzeForSummary fills sum from one pass over the function body:
// parameters and the receiver are seeded as tainted with sentinel
// origins, result taint is collected at returns and classified into
// source chains vs. parameter/receiver flows, and the backward release
// pass proves which byte-slice parameters are zeroized on all paths.
func (en *Func) analyzeForSummary(sum *Summary) {
	seed := Facts{}
	seedVar := func(v *types.Var, tag string) {
		if v == nil || !seedable(v.Type()) {
			return
		}
		p := Path{v, ""}
		seed.Add(p)
		en.addOrigin(p, paramOriginPrefix+tag)
	}
	if en.sig != nil {
		for i := 0; i < en.sig.Params().Len(); i++ {
			seedVar(en.sig.Params().At(i), fmt.Sprintf("p%d", i))
		}
		seedVar(en.sig.Recv(), "recv")
	}

	ins := dataflow.Forward(en.cfg, seed, en.taintTransfer)
	raw := map[int]string{}
	en.collectResultTaint(ins, raw)
	fnName := ""
	if en.sig != nil {
		if obj, ok := en.info.Defs[en.decl.Name].(*types.Func); ok {
			fnName = PrettyName(obj)
		}
	}
	for idx, origin := range raw {
		tag, isParam := strings.CutPrefix(origin, paramOriginPrefix)
		if !isParam {
			// Keep a marker-declared origin if one is already present;
			// extend body-derived chains with this function's own name so
			// callers see the full provenance path.
			if _, have := sum.TaintedResults[idx]; !have {
				if fnName != "" {
					origin += " → " + fnName
				}
				sum.TaintedResults[idx] = origin
			}
			continue
		}
		// "p3" or "p0 via enc" → parameter flow; "recv..." → receiver flow.
		tag, _, _ = strings.Cut(tag, " ")
		if tag == "recv" {
			sum.RecvFlows = append(sum.RecvFlows, idx)
			continue
		}
		var pi int
		if _, err := fmt.Sscanf(tag, "p%d", &pi); err == nil {
			sum.ParamFlows[pi] = append(sum.ParamFlows[pi], idx)
		}
	}
	sort.Ints(sum.RecvFlows)
	for pi := range sum.ParamFlows {
		sort.Ints(sum.ParamFlows[pi])
	}

	outs := dataflow.Backward(en.cfg, nil, en.releaseTransfer)
	entry := entryFacts(en.cfg, outs, en.releaseTransfer)
	if en.sig != nil {
		for i := 0; i < en.sig.Params().Len(); i++ {
			v := en.sig.Params().At(i)
			if v != nil && needsRelease(v.Type()) && entry.Has(Path{v, ""}) {
				sum.ZeroizedParams[i] = true
			}
		}
	}
}

// seedable reports whether a parameter's type can carry key bytes the
// path language tracks: byte slices, strings, and structs/pointers that
// may hold them (seeded wholesale; field reads inherit via lookup).
func seedable(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return true
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.Pointer, *types.Struct, *types.Interface:
		return true
	}
	return false
}

// ResultNeedsRelease reports whether a call's idx-th result carries a
// scrub obligation: a byte slice (scrub.Bytes / clear) or a *math/big.Int
// (scrub.Big), the two shapes key material takes in this codebase.
func (en *Func) ResultNeedsRelease(call *ast.CallExpr, idx int) bool {
	ts := en.resultTypes(call)
	return idx < len(ts) && needsRelease(ts[idx])
}

// needsRelease reports whether values of t carry a direct scrub
// obligation when tainted: byte slices and *math/big.Int. big.Int is
// special-cased because it is where every RSA computation in this
// codebase puts key bytes — leaving its limbs out of the must-release
// analysis was the math/big hole (DESIGN.md §6).
func needsRelease(t types.Type) bool {
	return isByteSlice(t) || isBigIntPtr(t)
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isBigIntPtr(t types.Type) bool {
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
