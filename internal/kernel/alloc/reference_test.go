package alloc

import (
	"fmt"

	"memshield/internal/fault"
	"memshield/internal/mem"
)

// mapAllocator is the buddy allocator as it was with map-based bookkeeping:
// maps from block head to order and stack position instead of per-frame
// arrays. It is kept only as the oracle for FuzzAllocMatchesReference, so
// it has no tracing.
type mapAllocator struct {
	mem          *mem.Memory
	policy       Policy
	free         [MaxOrder + 1][]mem.PageNum
	freeIdx      map[mem.PageNum]int
	freePos      map[mem.PageNum]int
	allocated    map[mem.PageNum]int
	deferredZero []mem.PageNum
	injector     *fault.Injector
	stats        Stats
}

func newMapAllocator(m *mem.Memory, policy Policy, in *fault.Injector) *mapAllocator {
	a := &mapAllocator{
		mem:       m,
		policy:    policy,
		freeIdx:   make(map[mem.PageNum]int),
		freePos:   make(map[mem.PageNum]int),
		allocated: make(map[mem.PageNum]int),
		injector:  in,
	}
	n := mem.PageNum(m.NumPages())
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
	return a
}

func (a *mapAllocator) pushFree(pn mem.PageNum, order int) {
	a.freePos[pn] = len(a.free[order])
	a.free[order] = append(a.free[order], pn)
	a.freeIdx[pn] = order
}

func (a *mapAllocator) removeFree(pn mem.PageNum, order int) {
	pos, ok := a.freePos[pn]
	if !ok {
		return
	}
	stack := a.free[order]
	last := len(stack) - 1
	if pos != last {
		moved := stack[last]
		stack[pos] = moved
		a.freePos[moved] = pos
	}
	a.free[order] = stack[:last]
	delete(a.freeIdx, pn)
	delete(a.freePos, pn)
}

func (a *mapAllocator) SetPolicy(p Policy) error {
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

func (a *mapAllocator) Stats() Stats { return a.stats }

func (a *mapAllocator) FreePages() int {
	total := 0
	for order, stack := range a.free {
		total += len(stack) << order
	}
	return total
}

func (a *mapAllocator) AllocPages(order int, owner mem.Owner) (mem.PageNum, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("alloc: order %d out of range [0,%d]", order, MaxOrder)
	}
	if err := a.injector.Fail(fault.SiteAllocPages); err != nil {
		return 0, fmt.Errorf("%w: %w", ErrOutOfMemory, err)
	}
	from := order
	for from <= MaxOrder && len(a.free[from]) == 0 {
		from++
	}
	if from > MaxOrder {
		return 0, fmt.Errorf("%w: no free block of order >= %d", ErrOutOfMemory, order)
	}
	stack := a.free[from]
	pn := stack[len(stack)-1]
	a.free[from] = stack[:len(stack)-1]
	delete(a.freeIdx, pn)
	delete(a.freePos, pn)
	for from > order {
		from--
		a.pushFree(pn+(mem.PageNum(1)<<from), from)
		a.stats.Splits++
	}
	a.allocated[pn] = order
	for p := pn; p < pn+(mem.PageNum(1)<<order); p++ {
		f := a.mem.Frame(p)
		f.State = mem.FrameAllocated
		f.Owner = owner
		f.RefCount = 1
		f.Locked = false
		f.ClearMappers()
	}
	a.stats.Allocs++
	return pn, nil
}

func (a *mapAllocator) zeroPage(pn mem.PageNum) error {
	if err := a.injector.Fail(fault.SiteZeroOnFree); err != nil {
		return err
	}
	return a.mem.ZeroPage(pn)
}

func (a *mapAllocator) Free(pn mem.PageNum) error {
	order, ok := a.allocated[pn]
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
	delete(a.allocated, pn)
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
		a.stats.PagesZeroed += int(size)
	case PolicySecureDealloc:
		for p := pn; p < pn+size; p++ {
			a.deferredZero = append(a.deferredZero, p)
		}
	}
	a.stats.Frees++
	for order < MaxOrder {
		buddy := pn ^ (mem.PageNum(1) << order)
		if bOrder, ok := a.freeIdx[buddy]; !ok || bOrder != order {
			break
		}
		if int(buddy)+(1<<order) > a.mem.NumPages() {
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
	return nil
}

func (a *mapAllocator) Tick() {
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
	}
	a.deferredZero = pending
}

func (a *mapAllocator) PendingZero() int { return len(a.deferredZero) }

func (a *mapAllocator) CheckConsistency() error {
	covered := make([]int, a.mem.NumPages())
	for order, stack := range a.free {
		for _, head := range stack {
			if got, ok := a.freeIdx[head]; !ok || got != order {
				return fmt.Errorf("free block %d order %d missing from index", head, order)
			}
			for p := head; p < head+(mem.PageNum(1)<<order); p++ {
				if int(p) >= len(covered) {
					return fmt.Errorf("free block %d order %d exceeds memory", head, order)
				}
				covered[p]++
				if a.mem.Frame(p).State != mem.FrameFree {
					return fmt.Errorf("page %d on free list but state %v", p, a.mem.Frame(p).State)
				}
			}
		}
	}
	for head, order := range a.allocated {
		for p := head; p < head+(mem.PageNum(1)<<order); p++ {
			if int(p) >= len(covered) {
				return fmt.Errorf("allocated block %d order %d exceeds memory", head, order)
			}
			covered[p]++
			if a.mem.Frame(p).State != mem.FrameAllocated {
				return fmt.Errorf("page %d allocated but state %v", p, a.mem.Frame(p).State)
			}
		}
	}
	for p, c := range covered {
		if c != 1 {
			return fmt.Errorf("page %d covered %d times, want exactly 1", p, c)
		}
	}
	if a.policy == PolicyZeroOnFree {
		for head, order := range a.freeIdx {
			for p := head; p < head+(mem.PageNum(1)<<order); p++ {
				if !a.mem.PageIsZero(p) {
					return fmt.Errorf("zero-on-free violated: free page %d is dirty", p)
				}
			}
		}
	}
	return nil
}
