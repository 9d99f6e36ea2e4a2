// Package alloc implements the simulated kernel's physical page allocator.
//
// It is a classic buddy allocator over the frames of a mem.Memory, with one
// deliberate property inherited from real kernels: pages are handed out
// WITHOUT being zeroed, and by default they are freed without being zeroed
// either. Freed pages therefore retain their previous contents on the free
// lists — which is precisely the behaviour the paper's memory disclosure
// attacks exploit, and which the paper's kernel-level countermeasure (zeroing
// in free_hot_cold_page via clear_highpage) removes.
//
// Three deallocation policies are supported:
//
//   - PolicyRetain: the unpatched kernel. Freed pages keep their contents.
//   - PolicyZeroOnFree: the paper's kernel patch. Pages are cleared
//     synchronously as they enter the free lists.
//   - PolicySecureDealloc: the Chow et al. baseline ("Shredding your
//     garbage"), where clearing happens within a short, predictable period
//     after deallocation. Modelled as deferred zeroing drained by Tick.
//
// Free lists are LIFO, so a freshly freed (still key-laden) page is the next
// one handed to, say, the attacker's mkdir — matching the locality that made
// the ext2 leak so effective.
package alloc

import (
	"errors"
	"fmt"

	"memshield/internal/fault"
	"memshield/internal/mem"
	"memshield/internal/trace"
)

// Policy selects what happens to page contents at deallocation time.
type Policy int

// Deallocation policies.
const (
	// PolicyRetain leaves freed page contents intact (unpatched kernel).
	PolicyRetain Policy = iota + 1
	// PolicyZeroOnFree clears pages synchronously on free (paper's patch).
	PolicyZeroOnFree
	// PolicySecureDealloc clears pages a short, predictable period after
	// free (Chow et al. baseline); drained by Tick.
	PolicySecureDealloc
)

func (p Policy) String() string {
	switch p {
	case PolicyRetain:
		return "retain"
	case PolicyZeroOnFree:
		return "zero-on-free"
	case PolicySecureDealloc:
		return "secure-dealloc"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// MaxOrder is the largest block order supported (2^10 pages = 4 MiB blocks),
// matching Linux's MAX_ORDER-1 = 10.
const MaxOrder = 10

// ErrOutOfMemory is returned when no block of the requested order (or any
// larger, splittable order) is free.
var ErrOutOfMemory = errors.New("alloc: out of memory")

// ErrZeroOnFree is returned when the zero-on-free scrub of a page could
// not run (an injected SiteZeroOnFree failure). The free does not
// complete: the block stays allocated-and-dirty rather than entering the
// free lists with live contents — pages leak, contents never do. The
// failure is terminal for that block within the run (retrying the free
// would re-consult the same denied scrub), which is why the retry
// taxonomy (fault.Site.Transient, supervise.Classify) treats it as
// permanent rather than transient.
var ErrZeroOnFree = errors.New("alloc: zero on free failed")

// Stats aggregates allocator activity counters.
type Stats struct {
	Allocs      int // successful allocations (blocks)
	Frees       int // successful frees (blocks)
	PagesZeroed int // pages cleared by the dealloc policy
	Splits      int // buddy splits performed
	Merges      int // buddy merges performed
}

// Allocator is a buddy allocator over the frames of one Memory.
type Allocator struct {
	mem    *mem.Memory
	policy Policy

	// free[o] is a LIFO stack of free block heads of order o.
	free [MaxOrder + 1][]mem.PageNum
	// Per-frame buddy state, indexed by page number, as Linux keeps it in
	// struct page. Each order field stores order+1, so the zero value means
	// "not a block head" and New needs no initialisation pass.
	//
	// freeOrder[pn] is the order+1 of the free block headed by pn, for
	// O(1) buddy lookup and membership checks during merge. freePos[pn]
	// is that head's index within its order's stack, making removal O(1).
	// Removal swaps with the stack's last element, which slightly perturbs
	// pop order relative to a strict LIFO — an acceptable (and
	// deterministic) trade for making the free-list mixing used by
	// experiments linear instead of quadratic. allocOrder[pn] is the
	// order+1 of the allocated block headed by pn, so Free does not need
	// the caller to remember the size.
	freeOrder  []uint8
	freePos    []int32
	allocOrder []uint8

	// deferredZero holds pages awaiting clearing under PolicySecureDealloc.
	deferredZero []mem.PageNum

	// sink receives allocator events when tracing is enabled (nil = off).
	sink trace.Sink
	// injector makes fault-injection decisions (nil = no injection).
	injector *fault.Injector

	stats Stats
}

// SetSink attaches (or detaches, with nil) an event sink.
func (a *Allocator) SetSink(s trace.Sink) { a.sink = s }

// SetInjector attaches (or detaches, with nil) a fault injector covering
// SiteAllocPages and SiteZeroOnFree.
func (a *Allocator) SetInjector(in *fault.Injector) { a.injector = in }

// emit sends an event to the sink if tracing is on.
func (a *Allocator) emit(kind trace.Kind, pn mem.PageNum, aux int) {
	if a.sink != nil {
		a.sink.Emit(trace.Event{Kind: kind, Page: pn, Aux: aux})
	}
}

// New creates an allocator managing every frame of m, with all memory free.
func New(m *mem.Memory, policy Policy) (*Allocator, error) {
	switch policy {
	case PolicyRetain, PolicyZeroOnFree, PolicySecureDealloc:
	default:
		return nil, fmt.Errorf("alloc: unknown policy %d", int(policy))
	}
	n := m.NumPages()
	a := &Allocator{
		mem:        m,
		policy:     policy,
		freeOrder:  make([]uint8, n),
		freePos:    make([]int32, n),
		allocOrder: make([]uint8, n),
	}
	a.seedFreeLists()
	return a, nil
}

// seedFreeLists covers [0, NumPages) with the largest aligned buddy blocks.
func (a *Allocator) seedFreeLists() {
	n := mem.PageNum(a.mem.NumPages())
	var pn mem.PageNum
	for pn < n {
		order := MaxOrder
		for order > 0 {
			size := mem.PageNum(1) << order
			if pn%size == 0 && pn+size <= n {
				break
			}
			order--
		}
		a.pushFree(pn, order)
		pn += mem.PageNum(1) << order
	}
}

func (a *Allocator) pushFree(pn mem.PageNum, order int) {
	a.freePos[pn] = int32(len(a.free[order]))
	a.free[order] = append(a.free[order], pn)
	a.freeOrder[pn] = uint8(order + 1)
}

// removeFree removes the specific block head pn from the order's free stack
// in O(1) by swapping it with the stack's last element.
func (a *Allocator) removeFree(pn mem.PageNum, order int) {
	pos := int(a.freePos[pn])
	stack := a.free[order]
	last := len(stack) - 1
	if pos != last {
		moved := stack[last]
		stack[pos] = moved
		a.freePos[moved] = int32(pos)
	}
	a.free[order] = stack[:last]
	a.freeOrder[pn] = 0
}

// allocatedOrder returns the order of the allocated block headed by pn,
// and false when pn is out of range or not an allocated block head.
func (a *Allocator) allocatedOrder(pn mem.PageNum) (int, bool) {
	if pn >= mem.PageNum(len(a.allocOrder)) || a.allocOrder[pn] == 0 {
		return 0, false
	}
	return int(a.allocOrder[pn]) - 1, true
}

// Policy returns the active deallocation policy.
func (a *Allocator) Policy() Policy { return a.policy }

// SetPolicy changes the deallocation policy. Changing away from
// PolicySecureDealloc drains any pending deferred zeroing immediately, so no
// page silently escapes clearing.
func (a *Allocator) SetPolicy(p Policy) error {
	switch p {
	case PolicyRetain, PolicyZeroOnFree, PolicySecureDealloc:
	default:
		return fmt.Errorf("alloc: unknown policy %d", int(p))
	}
	if a.policy == PolicySecureDealloc && p != PolicySecureDealloc {
		a.Tick()
	}
	a.policy = p
	return nil
}

// Stats returns a snapshot of the activity counters.
func (a *Allocator) Stats() Stats { return a.stats }

// FreePages returns the number of individual pages currently free.
func (a *Allocator) FreePages() int {
	total := 0
	for order, stack := range a.free {
		total += len(stack) << order
	}
	return total
}

// AllocPages allocates a block of 2^order contiguous pages for the given
// owner and returns its head frame number. The block's contents are NOT
// zeroed (matching __get_free_pages without __GFP_ZERO).
func (a *Allocator) AllocPages(order int, owner mem.Owner) (mem.PageNum, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("alloc: order %d out of range [0,%d]", order, MaxOrder)
	}
	if err := a.injector.Fail(fault.SiteAllocPages); err != nil {
		return 0, fmt.Errorf("%w: %w", ErrOutOfMemory, err)
	}
	// Find the smallest order >= requested with a free block.
	from := order
	for from <= MaxOrder && len(a.free[from]) == 0 {
		from++
	}
	if from > MaxOrder {
		return 0, fmt.Errorf("%w: no free block of order >= %d", ErrOutOfMemory, order)
	}
	// Pop LIFO.
	stack := a.free[from]
	pn := stack[len(stack)-1]
	a.free[from] = stack[:len(stack)-1]
	a.freeOrder[pn] = 0
	// Split down to the requested order, pushing upper halves back.
	for from > order {
		from--
		buddy := pn + (mem.PageNum(1) << from)
		a.pushFree(buddy, from)
		a.stats.Splits++
	}
	a.allocOrder[pn] = uint8(order + 1)
	size := mem.PageNum(1) << order
	for p := pn; p < pn+size; p++ {
		f := a.mem.Frame(p)
		f.State = mem.FrameAllocated
		f.Owner = owner
		f.RefCount = 1
		f.Locked = false
		f.ClearMappers()
	}
	a.stats.Allocs++
	a.emit(trace.EvAlloc, pn, order)
	return pn, nil
}

// AllocPage allocates a single page (order 0).
func (a *Allocator) AllocPage(owner mem.Owner) (mem.PageNum, error) {
	return a.AllocPages(0, owner)
}

// BlockOrder returns the order of the allocated block headed by pn, or an
// error if pn is not an allocated block head.
func (a *Allocator) BlockOrder(pn mem.PageNum) (int, error) {
	order, ok := a.allocatedOrder(pn)
	if !ok {
		return 0, fmt.Errorf("alloc: page %d is not an allocated block head", pn)
	}
	return order, nil
}

// zeroPage clears one page, consulting the fault injector first: an
// injected SiteZeroOnFree failure models clear_highpage not running.
func (a *Allocator) zeroPage(pn mem.PageNum) error {
	if err := a.injector.Fail(fault.SiteZeroOnFree); err != nil {
		return err
	}
	return a.mem.ZeroPage(pn)
}

// Free returns the block headed by pn to the free lists, applying the
// deallocation policy to its contents and merging buddies where possible.
// Freeing a non-head or already-free page is an error (double free).
//
// Free is atomic: under PolicyZeroOnFree the block's pages are cleared
// BEFORE any bookkeeping changes, so if clearing fails (injected or real)
// the block simply stays allocated — it never reaches the free lists
// dirty, and the caller can retry or keep it. The failure-free event and
// stats sequence is unchanged by this ordering (EvZero per page, then one
// EvFree).
func (a *Allocator) Free(pn mem.PageNum) error {
	order, ok := a.allocatedOrder(pn)
	if !ok {
		return fmt.Errorf("alloc: free of page %d which is not an allocated block head", pn)
	}
	size := mem.PageNum(1) << order
	if a.policy == PolicyZeroOnFree {
		for p := pn; p < pn+size; p++ {
			if err := a.zeroPage(p); err != nil {
				return fmt.Errorf("%w: %w", ErrZeroOnFree, err)
			}
		}
	}
	a.allocOrder[pn] = 0
	for p := pn; p < pn+size; p++ {
		f := a.mem.Frame(p)
		f.State = mem.FrameFree
		f.Owner = mem.OwnerNone
		f.RefCount = 0
		f.Locked = false
		f.ClearMappers()
	}
	switch a.policy {
	case PolicyZeroOnFree:
		for p := pn; p < pn+size; p++ {
			a.stats.PagesZeroed++
			a.emit(trace.EvZero, p, 0)
		}
	case PolicySecureDealloc:
		for p := pn; p < pn+size; p++ {
			a.deferredZero = append(a.deferredZero, p)
		}
	}
	a.stats.Frees++
	a.emit(trace.EvFree, pn, order)
	a.insertAndMerge(pn, order)
	return nil
}

// insertAndMerge puts a free block on the lists, coalescing with its buddy
// repeatedly while possible. When the page count is not a multiple of
// 2^MaxOrder, a buddy block can fall past the last frame; it is bounds-
// checked before its state is read.
func (a *Allocator) insertAndMerge(pn mem.PageNum, order int) {
	n := mem.PageNum(len(a.freeOrder))
	for order < MaxOrder {
		size := mem.PageNum(1) << order
		buddy := pn ^ size
		if buddy+size > n || a.freeOrder[buddy] != uint8(order+1) {
			break
		}
		a.removeFree(buddy, order)
		if buddy < pn {
			pn = buddy
		}
		order++
		a.stats.Merges++
	}
	a.pushFree(pn, order)
}

// Tick drains the secure-dealloc deferred-zeroing queue: every page freed
// before this call is cleared now, unless it has already been reallocated
// (a reallocated page belongs to its new owner and must not be clobbered;
// its stale content was exposed only during the deferral window, which is
// exactly the window Chow et al.'s design accepts).
//
// A page whose clearing fails stays in the queue and is retried on the
// next Tick — a failed scrub is deferred further, never silently dropped,
// so PendingZero over-reports rather than under-reports the dirty-page
// exposure window.
func (a *Allocator) Tick() {
	pending := a.deferredZero[:0]
	for _, pn := range a.deferredZero {
		if a.mem.Frame(pn).State != mem.FrameFree {
			continue
		}
		if err := a.zeroPage(pn); err != nil {
			pending = append(pending, pn)
			continue
		}
		a.stats.PagesZeroed++
		a.emit(trace.EvZero, pn, 0)
	}
	a.deferredZero = pending
}

// PendingZero reports how many pages await deferred zeroing.
func (a *Allocator) PendingZero() int { return len(a.deferredZero) }

// ZeroPending reports whether a page is queued for deferred zeroing:
// the secure-dealloc deferral window the design accepts. Always false
// under the synchronous policies (their queue stays empty).
func (a *Allocator) ZeroPending(pn mem.PageNum) bool {
	for _, p := range a.deferredZero {
		if p == pn {
			return true
		}
	}
	return false
}

// CheckConsistency validates allocator invariants, returning the first
// violation found. Blocks are checked in frame order, so with several
// violations the one reported is always the lowest-numbered. It is
// intended for tests and property checks:
//
//  1. Every frame is either inside exactly one free block or exactly one
//     allocated block (full, non-overlapping coverage).
//  2. Free-list entries agree with the per-frame free state and frame
//     states.
//  3. Under PolicyZeroOnFree, every free page is all-zero.
//  4. Every frame mem marks all-zero holds only zero bytes (mem.FalseZero,
//     a byte scan independent of the mark it audits).
func (a *Allocator) CheckConsistency() error {
	n := a.mem.NumPages()
	covered := make([]int, n)
	for order, stack := range a.free {
		for i, head := range stack {
			if head >= mem.PageNum(n) || a.freeOrder[head] != uint8(order+1) || int(a.freePos[head]) != i {
				return fmt.Errorf("free block %d order %d missing from index", head, order)
			}
		}
	}
	for head := 0; head < n; head++ {
		if a.freeOrder[head] != 0 {
			order := int(a.freeOrder[head]) - 1
			if pos := int(a.freePos[head]); pos >= len(a.free[order]) || a.free[order][pos] != mem.PageNum(head) {
				return fmt.Errorf("free index entry %d order %d not on its free list", head, order)
			}
			if err := a.coverBlock(covered, head, order, mem.FrameFree); err != nil {
				return err
			}
		}
		if a.allocOrder[head] != 0 {
			order := int(a.allocOrder[head]) - 1
			if err := a.coverBlock(covered, head, order, mem.FrameAllocated); err != nil {
				return err
			}
		}
	}
	for p, c := range covered {
		if c != 1 {
			return fmt.Errorf("page %d covered %d times, want exactly 1", p, c)
		}
	}
	if a.policy == PolicyZeroOnFree {
		for p := 0; p < n; p++ {
			if a.mem.Frame(mem.PageNum(p)).State == mem.FrameFree && !a.mem.PageIsZero(mem.PageNum(p)) {
				return fmt.Errorf("zero-on-free violated: free page %d is dirty", p)
			}
		}
	}
	if p, ok := a.mem.FalseZero(); ok {
		return fmt.Errorf("page %d marked zero holds a non-zero byte", p)
	}
	return nil
}

// coverBlock counts the pages of the block headed by head in covered and
// checks that each is in the state want, the state of the block's list.
func (a *Allocator) coverBlock(covered []int, head, order int, want mem.FrameState) error {
	kind, where := "allocated", "allocated"
	if want == mem.FrameFree {
		kind, where = "free", "on free list"
	}
	for p := head; p < head+1<<order; p++ {
		if p >= len(covered) {
			return fmt.Errorf("%s block %d order %d exceeds memory", kind, head, order)
		}
		covered[p]++
		if got := a.mem.Frame(mem.PageNum(p)).State; got != want {
			return fmt.Errorf("page %d %s but state %v", p, where, got)
		}
	}
	return nil
}
