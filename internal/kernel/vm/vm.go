// Package vm implements virtual memory for simulated processes: address
// spaces, page tables, copy-on-write fork, mlock, and swap.
//
// The paper's application-level countermeasure is built directly on two of
// these mechanisms: it places the private key in a page-aligned region that
// no process ever writes (so fork's copy-on-write sharing keeps exactly one
// physical copy no matter how many children exist), and it mlock()s that
// region (so the key can never be written to swap, whose pages are freed
// without clearing and would otherwise expose the key in unallocated
// memory). Both behaviours — COW refcounting and swap-out freeing the frame
// with its contents intact — are modelled here at page granularity.
package vm

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"memshield/internal/fault"
	"memshield/internal/kernel/alloc"
	"memshield/internal/mem"
	"memshield/internal/trace"
)

// VAddr is a virtual address within one process address space.
type VAddr uint64

// VPage is a virtual page number.
type VPage uint64

// Page returns the virtual page containing the address.
func (a VAddr) Page() VPage { return VPage(a >> mem.PageShift) }

// Offset returns the byte offset within the page.
func (a VAddr) Offset() int { return int(a & (mem.PageSize - 1)) }

// Base returns the first address of the virtual page.
func (p VPage) Base() VAddr { return VAddr(p) << mem.PageShift }

// Errors reported by the VM layer.
var (
	ErrNoSpace      = errors.New("vm: no such address space")
	ErrBadAddress   = errors.New("vm: address not mapped")
	ErrSpaceExists  = errors.New("vm: address space already exists")
	ErrLockedPage   = errors.New("vm: page is mlocked")
	ErrNoSwapSpace  = errors.New("vm: swap area full")
	ErrNotSwappable = errors.New("vm: page not eligible for swap")
	// ErrMlockDenied is the RLIMIT_MEMLOCK / EPERM refusal: the pin the
	// paper's RSA_memory_align depends on was not granted. Only produced
	// under fault injection.
	ErrMlockDenied = errors.New("vm: mlock denied")
	// ErrSwapIO is a swap-device write failure during swap-out, distinct
	// from the device being full. Only produced under fault injection.
	ErrSwapIO = errors.New("vm: swap store I/O error")
)

// pte is one page-table entry. An entry that is neither present nor
// swapped is a hole: its page was released by an Unmap that failed part
// way, and lookups treat it as unmapped.
type pte struct {
	frame    mem.PageNum
	swapSlot int
	present  bool // resident in physical memory
	cow      bool // shared copy-on-write after fork
	locked   bool // mlocked: never swapped
	swapped  bool // contents live in a swap slot
}

// VMA describes one virtual memory area (a contiguous mapped region).
type VMA struct {
	Start VAddr
	End   VAddr // exclusive, page aligned
	Name  string
	// ptes is the area's page table: one entry per page, indexed by the
	// page's offset from Start.
	ptes []pte
	// piece marks an area cut from a larger one by a partial Unmap: its
	// entries are a window on that area's table, so the table is never
	// pooled.
	piece bool
}

// Pages returns the number of pages the VMA spans.
func (v *VMA) Pages() int { return int((v.End - v.Start) >> mem.PageShift) }

// AddressSpace is the virtual memory image of one process.
type AddressSpace struct {
	pid int
	// vmas is sorted by Start: placement only ever bumps nextVA, and a
	// partial Unmap replaces an area with its pieces in place.
	vmas   []*VMA
	nextVA VAddr // bump pointer for MapAnon placement
}

// lookup returns the page-table entry for vp, or nil when vp lies outside
// every VMA or in a hole.
func (s *AddressSpace) lookup(vp VPage) *pte {
	i := sort.Search(len(s.vmas), func(i int) bool { return s.vmas[i].End.Page() > vp })
	if i == len(s.vmas) || vp < s.vmas[i].Start.Page() {
		return nil
	}
	e := &s.vmas[i].ptes[vp-s.vmas[i].Start.Page()]
	if !e.present && !e.swapped {
		return nil
	}
	return e
}

// PID returns the owning process ID.
func (s *AddressSpace) PID() int { return s.pid }

// VMAs returns a copy of each mapped area's bounds and name, in address
// order. The copies hold no page table, and no caller holds a record the
// Manager may reuse.
func (s *AddressSpace) VMAs() []VMA {
	out := make([]VMA, len(s.vmas))
	for i, v := range s.vmas {
		out[i] = VMA{Start: v.Start, End: v.End, Name: v.Name}
	}
	return out
}

// Manager owns every address space on the machine plus the swap area.
type Manager struct {
	mem    *mem.Memory
	alloc  *alloc.Allocator
	spaces map[int]*AddressSpace
	swap   *SwapArea
	// sink receives VM events when tracing is enabled (nil = off).
	sink trace.Sink
	// injector makes fault-injection decisions (nil = no injection).
	injector *fault.Injector
	// pool keeps the page tables of removed areas, in the VMA records
	// they had, by page count, with every entry zero: each new area of
	// that size draws one before it allocates (DESIGN.md §12).
	pool map[int][]*VMA
}

// SetSink attaches (or detaches, with nil) an event sink.
func (mg *Manager) SetSink(s trace.Sink) { mg.sink = s }

// SetInjector attaches (or detaches, with nil) a fault injector covering
// SiteMlock and SiteSwapStore.
func (mg *Manager) SetInjector(in *fault.Injector) { mg.injector = in }

// emit sends an event to the sink if tracing is on.
func (mg *Manager) emit(kind trace.Kind, pid int, pn mem.PageNum, aux int) {
	if mg.sink != nil {
		mg.sink.Emit(trace.Event{Kind: kind, PID: pid, Page: pn, Aux: aux})
	}
}

// NewManager creates a VM manager over the given memory and allocator, with
// a swap area of swapPages slots (0 disables swap).
func NewManager(m *mem.Memory, a *alloc.Allocator, swapPages int, encryptSwap bool) *Manager {
	return &Manager{
		mem:    m,
		alloc:  a,
		spaces: make(map[int]*AddressSpace),
		swap:   NewSwapArea(swapPages, encryptSwap),
		pool:   make(map[int][]*VMA),
	}
}

// newVMA returns the record of a new area of npages at start, its page
// table all zero: a pooled table of that size when there is one, a fresh
// one otherwise.
func (mg *Manager) newVMA(start VAddr, npages int, name string) *VMA {
	end := start + VAddr(npages*mem.PageSize)
	free := mg.pool[npages]
	if len(free) == 0 {
		return &VMA{Start: start, End: end, Name: name, ptes: make([]pte, npages)}
	}
	v := free[len(free)-1]
	free[len(free)-1] = nil
	mg.pool[npages] = free[:len(free)-1]
	v.Start, v.End, v.Name = start, end, name
	return v
}

// recycle returns a removed area's page table and record to the pool,
// cleared. A piece of a split area shares its table with the other
// piece, so it is left to the collector; the pool therefore never holds
// more tables of one size than were live at once.
func (mg *Manager) recycle(v *VMA) {
	if v.piece {
		return
	}
	clear(v.ptes)
	*v = VMA{ptes: v.ptes}
	mg.pool[len(v.ptes)] = append(mg.pool[len(v.ptes)], v)
}

// Swap exposes the swap area (for disclosure experiments on swap contents).
func (mg *Manager) Swap() *SwapArea { return mg.swap }

// NewSpace creates an empty address space for pid.
func (mg *Manager) NewSpace(pid int) (*AddressSpace, error) {
	if _, ok := mg.spaces[pid]; ok {
		return nil, fmt.Errorf("%w: pid %d", ErrSpaceExists, pid)
	}
	s := &AddressSpace{
		pid:    pid,
		nextVA: 0x1000, // leave page 0 unmapped, like a real process
	}
	mg.spaces[pid] = s
	return s, nil
}

// Space returns the address space of pid.
func (mg *Manager) Space(pid int) (*AddressSpace, error) {
	s, ok := mg.spaces[pid]
	if !ok {
		return nil, fmt.Errorf("%w: pid %d", ErrNoSpace, pid)
	}
	return s, nil
}

// HasSpace reports whether pid has an address space.
func (mg *Manager) HasSpace(pid int) bool {
	_, ok := mg.spaces[pid]
	return ok
}

// MapAnon maps npages of fresh anonymous memory into pid's address space and
// returns the starting virtual address. Physical frames are allocated
// eagerly and are NOT zeroed by the allocator; like a real kernel we clear
// anonymous pages before handing them to userspace (so secrets never leak
// INTO a process; they leak out of freed pages instead).
func (mg *Manager) MapAnon(pid int, npages int, name string) (VAddr, error) {
	s, err := mg.Space(pid)
	if err != nil {
		return 0, err
	}
	if npages <= 0 {
		return 0, fmt.Errorf("vm: MapAnon npages must be positive, got %d", npages)
	}
	start := s.nextVA
	vma := mg.newVMA(start, npages, name)
	ptes := vma.ptes
	for i := range ptes {
		pn, err := mg.alloc.AllocPage(mem.OwnerUser)
		if err != nil {
			mg.rollback(vma, i)
			return 0, fmt.Errorf("vm: MapAnon: %w", err)
		}
		// Anonymous mappings are zero-filled on first touch in real
		// kernels; zero eagerly here. On failure the page just allocated
		// joins the rollback, or the whole batch leaks.
		if zerr := mg.mem.ZeroPage(pn); zerr != nil {
			_ = mg.alloc.Free(pn)
			mg.rollback(vma, i)
			return 0, fmt.Errorf("vm: MapAnon: %w", zerr)
		}
		ptes[i] = pte{frame: pn, present: true}
	}
	for i := range ptes {
		mg.mem.Frame(ptes[i].frame).AddMapper(pid)
	}
	s.vmas = append(s.vmas, vma)
	s.nextVA = vma.End + mem.PageSize // guard page gap
	return start, nil
}

// rollback undoes a partly built mapping whose first n entries hold
// frames: it frees them in page order and returns the table to the pool.
func (mg *Manager) rollback(v *VMA, n int) {
	for i := range v.ptes[:n] {
		_ = mg.alloc.Free(v.ptes[i].frame)
	}
	mg.recycle(v)
}

// Unmap removes npages starting at the page containing addr from pid's
// address space. Frames whose last reference drops are returned to the
// allocator (the dealloc policy decides whether their contents survive).
// When a release fails, Unmap stops there: the pages already released
// become holes, and the rest stay mapped.
func (mg *Manager) Unmap(pid int, addr VAddr, npages int) error {
	s, err := mg.Space(pid)
	if err != nil {
		return err
	}
	for i := 0; i < npages; i++ {
		vp := addr.Page() + VPage(i)
		e := s.lookup(vp)
		if e == nil {
			return fmt.Errorf("%w: pid %d vpage %d", ErrBadAddress, pid, vp)
		}
		if err := mg.dropPTE(pid, e); err != nil {
			return err
		}
		*e = pte{}
	}
	mg.trimVMAs(s, addr, npages)
	return nil
}

// dropPTE releases whatever the PTE holds: a frame reference or a swap
// slot. It is atomic: when this is the frame's last reference, nothing is
// mutated until the allocator's Free succeeds (Free resets the frame's
// metadata wholesale), so a failed zero-on-free leaves the mapping fully
// intact for retry instead of stranding a mapper-less allocated frame.
func (mg *Manager) dropPTE(pid int, e *pte) error {
	if e.swapped {
		mg.swap.Release(e.swapSlot)
		return nil
	}
	if !e.present {
		return nil
	}
	f := mg.mem.Frame(e.frame)
	if f.RefCount <= 1 {
		if err := mg.alloc.Free(e.frame); err != nil {
			return fmt.Errorf("vm: release frame %d: %w", e.frame, err)
		}
		return nil
	}
	f.RemoveMapper(pid)
	f.RefCount--
	return nil
}

// trimVMAs removes or shrinks the VMAs covering the unmapped range,
// filtering s.vmas in place; a whole area removed returns its page table
// to the pool. A partial unmap in the middle of a VMA splits it, and each
// piece keeps its slice of the area's entries.
func (mg *Manager) trimVMAs(s *AddressSpace, addr VAddr, npages int) {
	lo := addr.Page().Base()
	hi := lo + VAddr(npages*mem.PageSize)
	out := s.vmas[:0]
	for i, v := range s.vmas {
		switch {
		case v.End <= lo || v.Start >= hi:
			out = append(out, v)
		case v.Start >= lo && v.End <= hi:
			mg.recycle(v)
		case v.Start < lo && v.End > hi:
			// The range lies inside v, so every other area stays as it
			// is; v becomes two pieces.
			s.vmas = slices.Insert(s.vmas, i+1, v.slice(hi, v.End))
			s.vmas[i] = v.slice(v.Start, lo)
			return
		case v.Start < lo:
			out = append(out, v.slice(v.Start, lo))
		default:
			out = append(out, v.slice(hi, v.End))
		}
	}
	clear(s.vmas[len(out):])
	s.vmas = out
}

// slice returns a new VMA over [start, end) within v, a piece sharing v's
// entries.
func (v *VMA) slice(start, end VAddr) *VMA {
	i, j := int((start-v.Start)>>mem.PageShift), int((end-v.Start)>>mem.PageShift)
	return &VMA{Start: start, End: end, Name: v.Name, ptes: v.ptes[i:j:j], piece: true}
}

// DestroySpace tears down pid's entire address space, releasing every frame
// and swap slot and returning its page tables to the pool. The process's
// pages become unallocated memory — with their contents intact unless the
// allocator policy clears them. This models process exit, the moment the
// paper shows key copies entering unallocated memory.
// DestroySpace is best-effort: a PTE whose release fails (an injected
// zero-on-free, say) is reported but does not abort the teardown — the
// remaining PTEs are still dropped and the space is always removed, so a
// partial failure can never leave a dangling address space whose PTEs
// reference freed frames. Frames whose release failed stay allocated
// (leaked, but structurally consistent) and are named in the joined error.
func (mg *Manager) DestroySpace(pid int) error {
	s, err := mg.Space(pid)
	if err != nil {
		return err
	}
	// VMAs are sorted, so teardown frees pages in ascending virtual page
	// order: the allocator's LIFO free lists, and every experiment
	// downstream of them, depend on that order.
	var errs error
	for _, v := range s.vmas {
		for i := range v.ptes {
			if err := mg.dropPTE(pid, &v.ptes[i]); err != nil {
				vp := v.Start.Page() + VPage(i)
				errs = errors.Join(errs, fmt.Errorf("vm: destroy pid %d vpage %d: %w", pid, vp, err))
			}
		}
		mg.recycle(v)
	}
	// A holder of the space sees no areas, and no record now pooled.
	s.vmas = nil
	delete(mg.spaces, pid)
	mg.emit(trace.EvExit, pid, 0, 0)
	return errs
}

// Fork clones parent's address space for child using copy-on-write: every
// resident page becomes shared and read-only in both processes; the first
// write by either side breaks the sharing with a private copy. Swapped-out
// pages are faulted back in first (simplification: fork touches them).
func (mg *Manager) Fork(parentPID, childPID int) error {
	ps, err := mg.Space(parentPID)
	if err != nil {
		return err
	}
	if _, ok := mg.spaces[childPID]; ok {
		return fmt.Errorf("%w: pid %d", ErrSpaceExists, childPID)
	}
	// Fault in swapped pages before sharing, in ascending virtual page
	// order: swap-in allocates.
	for _, v := range ps.vmas {
		for i := range v.ptes {
			if e := &v.ptes[i]; e.swapped {
				if err := mg.swapIn(parentPID, e); err != nil {
					return err
				}
			}
		}
	}
	// Each of the child's areas takes a whole page table of its size from
	// the pool, so the tables its exit returns are the ones the next fork
	// draws. The area list has room for one more: a forked server child
	// maps its session or request arena next.
	cs := &AddressSpace{
		pid:    childPID,
		vmas:   make([]*VMA, len(ps.vmas), len(ps.vmas)+1),
		nextVA: ps.nextVA,
	}
	for k, v := range ps.vmas {
		c := mg.newVMA(v.Start, len(v.ptes), v.Name)
		for i := range v.ptes {
			e := &v.ptes[i]
			if !e.present {
				continue
			}
			e.cow = true
			c.ptes[i] = *e
			f := mg.mem.Frame(e.frame)
			f.RefCount++
			f.AddMapper(childPID)
		}
		cs.vmas[k] = c
	}
	mg.spaces[childPID] = cs
	mg.emit(trace.EvFork, parentPID, 0, childPID)
	return nil
}

// Read copies n bytes from pid's virtual memory, faulting in swapped pages.
func (mg *Manager) Read(pid int, addr VAddr, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := mg.ReadInto(pid, addr, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto is Read into the caller's buffer: it fills dst from pid's
// virtual memory at addr, faulting in swapped pages. On error dst is
// cleared, so no partial read is left behind.
func (mg *Manager) ReadInto(pid int, addr VAddr, dst []byte) error {
	s, err := mg.Space(pid)
	if err != nil {
		return err
	}
	for done := 0; done < len(dst); {
		e := s.lookup(addr.Page())
		if e == nil {
			clear(dst)
			return fmt.Errorf("%w: pid %d addr %#x", ErrBadAddress, pid, addr)
		}
		if e.swapped {
			if err := mg.swapIn(pid, e); err != nil {
				clear(dst)
				return err
			}
		}
		take := min(mem.PageSize-addr.Offset(), len(dst)-done)
		if err := mg.mem.ReadInto(dst[done:done+take], e.frame.Base()+mem.Addr(addr.Offset())); err != nil {
			clear(dst)
			return err
		}
		addr += VAddr(take)
		done += take
	}
	return nil
}

// Write copies b into pid's virtual memory. Writing a COW-shared page breaks
// the sharing: the writer gets a private copy of the frame (this is the COW
// break that multiplies key copies in Apache prefork workers).
func (mg *Manager) Write(pid int, addr VAddr, b []byte) error {
	s, err := mg.Space(pid)
	if err != nil {
		return err
	}
	for len(b) > 0 {
		e := s.lookup(addr.Page())
		if e == nil {
			return fmt.Errorf("%w: pid %d addr %#x", ErrBadAddress, pid, addr)
		}
		if e.swapped {
			if err := mg.swapIn(pid, e); err != nil {
				return err
			}
		}
		if e.cow {
			if err := mg.breakCOW(pid, e); err != nil {
				return err
			}
		}
		take := mem.PageSize - addr.Offset()
		if take > len(b) {
			take = len(b)
		}
		if err := mg.mem.Write(e.frame.Base()+mem.Addr(addr.Offset()), b[:take]); err != nil {
			return err
		}
		addr += VAddr(take)
		b = b[take:]
	}
	return nil
}

// breakCOW gives the writing process a private copy of the shared frame.
// If the frame is no longer shared, the PTE simply stops being COW.
func (mg *Manager) breakCOW(pid int, e *pte) error {
	f := mg.mem.Frame(e.frame)
	if f.RefCount <= 1 {
		e.cow = false
		return nil
	}
	newPN, err := mg.alloc.AllocPage(mem.OwnerUser)
	if err != nil {
		return fmt.Errorf("vm: COW break: %w", err)
	}
	if err := mg.mem.CopyPage(newPN, e.frame); err != nil {
		return err
	}
	f.RefCount--
	f.RemoveMapper(pid)
	mg.emit(trace.EvCOWBreak, pid, e.frame, int(newPN))
	e.frame = newPN
	e.cow = false
	nf := mg.mem.Frame(newPN)
	nf.AddMapper(pid)
	nf.Locked = e.locked
	return nil
}

// Mlock pins npages starting at addr: they will never be selected for
// swap-out. This is the mlock() the paper's RSA_memory_align calls on the
// key page. An injected denial (RLIMIT_MEMLOCK/EPERM) fails the whole
// call before any page is pinned.
func (mg *Manager) Mlock(pid int, addr VAddr, npages int) error {
	if err := mg.injector.Fail(fault.SiteMlock); err != nil {
		return fmt.Errorf("%w: %w", ErrMlockDenied, err)
	}
	s, err := mg.Space(pid)
	if err != nil {
		return err
	}
	for i := 0; i < npages; i++ {
		vp := addr.Page() + VPage(i)
		e := s.lookup(vp)
		if e == nil {
			return fmt.Errorf("%w: pid %d vpage %d", ErrBadAddress, pid, vp)
		}
		if e.swapped {
			if err := mg.swapIn(pid, e); err != nil {
				return err
			}
		}
		e.locked = true
		mg.mem.Frame(e.frame).Locked = true
	}
	return nil
}

// IsLocked reports whether the page containing addr is mlocked.
func (mg *Manager) IsLocked(pid int, addr VAddr) (bool, error) {
	s, err := mg.Space(pid)
	if err != nil {
		return false, err
	}
	e := s.lookup(addr.Page())
	if e == nil {
		return false, fmt.Errorf("%w: pid %d addr %#x", ErrBadAddress, pid, addr)
	}
	return e.locked, nil
}

// SwapOut evicts the page at addr in pid's space to the swap area. The
// page's frame is freed — and, crucially, under the unpatched-kernel policy
// its contents (possibly key material) remain readable in unallocated
// memory, which is why the paper insists key pages be mlocked. Locked and
// COW-shared pages are not swappable.
//
// SwapOut is atomic: if the swap store is full (ErrNoSwapSpace), the
// device write fails (injected ErrSwapIO), or the frame cannot be freed,
// the victim page remains mapped, present and intact — there is no
// partially-swapped state. A slot claimed before a later step fails is
// released again.
func (mg *Manager) SwapOut(pid int, addr VAddr) error {
	s, err := mg.Space(pid)
	if err != nil {
		return err
	}
	e := s.lookup(addr.Page())
	if e == nil || !e.present {
		return fmt.Errorf("%w: pid %d addr %#x", ErrBadAddress, pid, addr)
	}
	if e.locked {
		return fmt.Errorf("%w: pid %d addr %#x", ErrLockedPage, pid, addr)
	}
	if mg.mem.Frame(e.frame).RefCount > 1 {
		return fmt.Errorf("%w: shared page", ErrNotSwappable)
	}
	content, err := mg.mem.Read(e.frame.Base(), mem.PageSize)
	if err != nil {
		return err
	}
	if ierr := mg.injector.Fail(fault.SiteSwapStore); ierr != nil {
		return fmt.Errorf("%w: %w", ErrSwapIO, ierr)
	}
	slot, err := mg.swap.Store(content)
	if err != nil {
		return err
	}
	// Free resets the frame's mapper/refcount metadata itself, so nothing
	// is pre-mutated: a Free failure rolls back to exactly the pre-call
	// state (modulo the released slot's content, which swap never clears).
	if err := mg.alloc.Free(e.frame); err != nil {
		mg.swap.Release(slot)
		return fmt.Errorf("vm: swap-out of frame %d: %w", e.frame, err)
	}
	e.present = false
	e.swapped = true
	e.swapSlot = slot
	mg.emit(trace.EvSwapOut, pid, e.frame, slot)
	return nil
}

// swapIn faults a swapped page back into a fresh frame.
func (mg *Manager) swapIn(pid int, e *pte) error {
	content, err := mg.swap.Load(e.swapSlot)
	if err != nil {
		return err
	}
	pn, err := mg.alloc.AllocPage(mem.OwnerUser)
	if err != nil {
		return fmt.Errorf("vm: swap-in: %w", err)
	}
	if err := mg.mem.Write(pn.Base(), content); err != nil {
		return err
	}
	mg.swap.Release(e.swapSlot)
	mg.emit(trace.EvSwapIn, pid, pn, e.swapSlot)
	e.frame = pn
	e.present = true
	e.swapped = false
	e.swapSlot = 0
	f := mg.mem.Frame(pn)
	f.AddMapper(pid)
	f.Locked = e.locked
	return nil
}

// SwapOutVictims evicts up to n unlocked, unshared resident pages from pid's
// space (front-to-back scan), returning how many were evicted. It models
// memory pressure hitting one process.
func (mg *Manager) SwapOutVictims(pid int, n int) (int, error) {
	s, err := mg.Space(pid)
	if err != nil {
		return 0, err
	}
	// Deterministic order: walk VMAs in mapping order.
	evicted := 0
	for _, v := range s.vmas {
		for i := range v.ptes {
			if evicted >= n {
				return evicted, nil
			}
			e := &v.ptes[i]
			if !e.present || e.locked {
				continue
			}
			if mg.mem.Frame(e.frame).RefCount > 1 {
				continue
			}
			if err := mg.SwapOut(pid, v.Start+VAddr(i*mem.PageSize)); err != nil {
				// A full swap area stays full for the rest of the scan;
				// every later victim would fail identically, so stop.
				// Other failures (injected store I/O) skip this victim
				// only — its page stays mapped and intact.
				if errors.Is(err, ErrNoSwapSpace) {
					return evicted, nil
				}
				continue
			}
			evicted++
		}
	}
	return evicted, nil
}

// FrameOf returns the physical frame backing pid's page at addr, for tests
// and the scanner's ground truth.
func (mg *Manager) FrameOf(pid int, addr VAddr) (mem.PageNum, error) {
	s, err := mg.Space(pid)
	if err != nil {
		return 0, err
	}
	e := s.lookup(addr.Page())
	if e == nil || !e.present {
		return 0, fmt.Errorf("%w: pid %d addr %#x", ErrBadAddress, pid, addr)
	}
	return e.frame, nil
}

// CheckConsistency verifies the manager's structural invariants against
// physical memory and the swap area, returning the first violation found.
// Spaces are checked in PID order and pages in ascending virtual page
// order, so with several violations the one reported is always the same.
// Like alloc.CheckConsistency it exists for tests and property harnesses —
// the fault matrix runs it after every injected-fault sweep to prove that
// no error path, organic or injected, leaves the VM layer torn:
//
//  1. A space's VMAs are sorted, disjoint and hold one entry per page.
//  2. No PTE is simultaneously present and swapped.
//  3. A present PTE references a valid, allocated frame that records the
//     owning process as a mapper.
//  4. A frame's RefCount is at least the number of present PTEs that
//     reference it (non-VM holders may account for more, never fewer).
//  5. A swapped PTE's slot is in range and in use, and no two PTEs share a
//     slot (shared pages are never swapped).
func (mg *Manager) CheckConsistency() error {
	pids := make([]int, 0, len(mg.spaces))
	for pid := range mg.spaces {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	mapped := make([]int, mg.mem.NumPages())
	slotOwned := make([]bool, mg.swap.Slots())
	for _, pid := range pids {
		s := mg.spaces[pid]
		var prevEnd VAddr
		for _, v := range s.vmas {
			if v.Start < prevEnd || v.End <= v.Start || len(v.ptes) != v.Pages() {
				return fmt.Errorf("vm: pid %d VMA [%#x, %#x) out of order or holds %d entries", pid, v.Start, v.End, len(v.ptes))
			}
			prevEnd = v.End
			for i := range v.ptes {
				if err := mg.checkPTE(pid, v.Start.Page()+VPage(i), &v.ptes[i], mapped, slotOwned); err != nil {
					return err
				}
			}
		}
	}
	for pn, n := range mapped {
		if f := mg.mem.Frame(mem.PageNum(pn)); f.RefCount < n {
			return fmt.Errorf("vm: frame %d refcount %d below its %d present mappings", pn, f.RefCount, n)
		}
	}
	return nil
}

// checkPTE checks one entry of pid's page table, counting a present
// entry's frame in mapped and claiming a swapped entry's slot in slotOwned.
func (mg *Manager) checkPTE(pid int, vp VPage, e *pte, mapped []int, slotOwned []bool) error {
	if e.present && e.swapped {
		return fmt.Errorf("vm: pid %d vpage %d both present and swapped", pid, vp)
	}
	if e.present {
		if !mg.mem.ValidPage(e.frame) {
			return fmt.Errorf("vm: pid %d vpage %d maps invalid frame %d", pid, vp, e.frame)
		}
		f := mg.mem.Frame(e.frame)
		if f.State != mem.FrameAllocated {
			return fmt.Errorf("vm: pid %d vpage %d maps frame %d in state %v", pid, vp, e.frame, f.State)
		}
		if !f.HasMapper(pid) {
			return fmt.Errorf("vm: frame %d does not list mapper %d", e.frame, pid)
		}
		mapped[e.frame]++
	}
	if e.swapped {
		if e.swapSlot < 0 || e.swapSlot >= len(slotOwned) {
			return fmt.Errorf("vm: pid %d vpage %d swapped to out-of-range slot %d", pid, vp, e.swapSlot)
		}
		if !mg.swap.SlotInUse(e.swapSlot) {
			return fmt.Errorf("vm: pid %d vpage %d swapped to released slot %d", pid, vp, e.swapSlot)
		}
		if slotOwned[e.swapSlot] {
			return fmt.Errorf("vm: swap slot %d referenced by more than one PTE", e.swapSlot)
		}
		slotOwned[e.swapSlot] = true
	}
	return nil
}
