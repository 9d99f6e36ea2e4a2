// Package libc implements a userspace heap allocator (malloc/free/
// posix_memalign/mlock) for simulated processes, on top of kernel-mapped
// anonymous memory.
//
// Like glibc, it carves page-backed arenas into chunks, and — crucially for
// the paper — free() does NOT clear chunk contents. A freed decode buffer
// that held RSA key bytes keeps holding them: first inside still-allocated
// arena pages (the "copies in allocated memory" the paper found surprising),
// and then, once the arena's last chunk is freed and its pages are returned
// to the kernel, inside unallocated memory (the classic leak). FreeZero is
// the "clear sensitive data promptly" practice from Viega et al., and
// Memalign+Mlock is the foundation of the paper's RSA_memory_align.
package libc

import (
	"errors"
	"fmt"
	"sort"

	"memshield/internal/fault"
	"memshield/internal/kernel"
	"memshield/internal/kernel/vm"
	"memshield/internal/mem"
)

const (
	// arenaPages is the size of one heap arena in pages.
	arenaPages = 16
	// chunkAlign is the allocation granularity.
	chunkAlign = 16
	// minSplit is the smallest remainder worth keeping as a free chunk.
	minSplit = 32
)

// Errors reported by the heap.
var (
	ErrBadFree    = errors.New("libc: free of unknown pointer")
	ErrDoubleFree = errors.New("libc: double free")
	ErrBadSize    = errors.New("libc: bad allocation size")
	ErrCorrupted  = errors.New("libc: heap metadata corrupted")
	// ErrNoMem is a malloc failure. Produced organically when the kernel
	// is out of pages (wrapping alloc.ErrOutOfMemory) or directly under
	// fault injection.
	ErrNoMem = errors.New("libc: out of memory")
)

// chunk is one allocation unit inside an arena.
type chunk struct {
	off  int // offset from arena base
	size int
	free bool
}

// arena is one contiguous kernel mapping carved into chunks.
type arena struct {
	base   vm.VAddr
	pages  int
	chunks []chunk // sorted by off, fully covering the arena
}

func (ar *arena) bytes() int { return ar.pages * mem.PageSize }

func (ar *arena) fullyFree() bool {
	for _, c := range ar.chunks {
		if !c.free {
			return false
		}
	}
	return true
}

// Stats counts heap activity.
type Stats struct {
	Mallocs        int
	Frees          int
	ArenasMapped   int
	ArenasReleased int
}

// Heap is the userspace allocator of one process.
type Heap struct {
	k       *kernel.Kernel
	pid     int
	arenas  []*arena
	aligned map[vm.VAddr]int // memalign regions: base -> pages
	stats   Stats
	// spare is the record of the arena last released, struct and chunk
	// slice, kept for the next fresh arena (nil when there is none).
	spare *arena
}

// New creates a heap for the given process.
func New(k *kernel.Kernel, pid int) *Heap {
	return &Heap{k: k, pid: pid, aligned: make(map[vm.VAddr]int)}
}

// Clone duplicates the heap metadata for a forked child. The child's
// virtual addresses are identical; the kernel's COW machinery supplies
// private frames on first write.
func (h *Heap) Clone(childPID int) *Heap {
	c := &Heap{k: h.k, pid: childPID, aligned: make(map[vm.VAddr]int, len(h.aligned))}
	for _, ar := range h.arenas {
		na := &arena{base: ar.base, pages: ar.pages, chunks: make([]chunk, len(ar.chunks))}
		copy(na.chunks, ar.chunks)
		c.arenas = append(c.arenas, na)
	}
	for b, p := range h.aligned {
		c.aligned[b] = p
	}
	return c
}

// PID returns the owning process ID.
func (h *Heap) PID() int { return h.pid }

// Stats returns a snapshot of the counters.
func (h *Heap) Stats() Stats { return h.stats }

// Malloc allocates n bytes and returns the virtual address. Contents are
// NOT cleared (like real malloc, the chunk may contain stale data from a
// previous allocation in the same arena).
//
// A failed Malloc — kernel out of pages, or an injected SiteMalloc fault —
// leaves the heap unchanged: no chunk is carved, no arena is (durably)
// mapped, and every counter keeps its pre-call value.
func (h *Heap) Malloc(n int) (vm.VAddr, error) {
	if n <= 0 {
		return 0, fmt.Errorf("%w: %d", ErrBadSize, n)
	}
	if err := h.k.Injector().Fail(fault.SiteMalloc); err != nil {
		return 0, fmt.Errorf("%w: %w", ErrNoMem, err)
	}
	n = (n + chunkAlign - 1) &^ (chunkAlign - 1)
	if n > arenaPages*mem.PageSize {
		// Large allocation: dedicated mapping, like mmap-backed malloc.
		pages := (n + mem.PageSize - 1) / mem.PageSize
		base, err := h.k.VM().MapAnon(h.pid, pages, "malloc-large")
		if err != nil {
			return 0, fmt.Errorf("%w: %w", ErrNoMem, err)
		}
		h.aligned[base] = pages
		h.stats.Mallocs++
		return base, nil
	}
	// First fit across arenas.
	for _, ar := range h.arenas {
		if addr, ok := h.takeFrom(ar, n); ok {
			h.stats.Mallocs++
			return addr, nil
		}
	}
	// Map a fresh arena.
	base, err := h.k.VM().MapAnon(h.pid, arenaPages, "heap-arena")
	if err != nil {
		return 0, fmt.Errorf("%w: %w", ErrNoMem, err)
	}
	ar := h.spare
	if ar == nil {
		// Room for the first split: a fresh arena's first malloc carves
		// its one chunk in two.
		ar = &arena{chunks: make([]chunk, 0, 2)}
	}
	h.spare = nil
	ar.base, ar.pages = base, arenaPages
	ar.chunks = append(ar.chunks[:0], chunk{off: 0, size: arenaPages * mem.PageSize, free: true})
	h.arenas = append(h.arenas, ar)
	h.stats.ArenasMapped++
	addr, ok := h.takeFrom(ar, n)
	if !ok {
		return 0, fmt.Errorf("%w: fresh arena cannot satisfy %d bytes", ErrCorrupted, n)
	}
	h.stats.Mallocs++
	return addr, nil
}

// takeFrom attempts a first-fit allocation of n bytes inside the arena.
func (h *Heap) takeFrom(ar *arena, n int) (vm.VAddr, bool) {
	for i := range ar.chunks {
		c := &ar.chunks[i]
		if !c.free || c.size < n {
			continue
		}
		addr := ar.base + vm.VAddr(c.off)
		if c.size-n >= minSplit {
			rest := chunk{off: c.off + n, size: c.size - n, free: true}
			c.size = n
			c.free = false
			ar.chunks = append(ar.chunks, chunk{})
			copy(ar.chunks[i+2:], ar.chunks[i+1:])
			ar.chunks[i+1] = rest
		} else {
			c.free = false
		}
		return addr, true
	}
	return 0, false
}

// Free releases an allocation WITHOUT clearing its contents — the default
// behaviour whose consequences the paper measures. When an arena's last
// chunk is freed, its pages are unmapped and returned to the kernel, moving
// any stale secrets into unallocated memory.
func (h *Heap) Free(p vm.VAddr) error {
	if pages, ok := h.aligned[p]; ok {
		delete(h.aligned, p)
		h.stats.Frees++
		return h.k.VM().Unmap(h.pid, p, pages)
	}
	ar, i := h.findChunk(p)
	if ar == nil {
		return fmt.Errorf("%w: %#x", ErrBadFree, p)
	}
	if ar.chunks[i].free {
		return fmt.Errorf("%w of %#x", ErrDoubleFree, p)
	}
	ar.chunks[i].free = true
	h.coalesce(ar)
	h.stats.Frees++
	if ar.fullyFree() {
		if err := h.releaseArena(ar); err != nil {
			return err
		}
	}
	return nil
}

// FreeZero clears the allocation before releasing it — the secure-coding
// practice (Viega et al.) and what RSA_memory_align does to the key's old
// location.
func (h *Heap) FreeZero(p vm.VAddr) error {
	n, err := h.SizeOf(p)
	if err != nil {
		return err
	}
	if err := h.Zero(p, n); err != nil {
		return err
	}
	return h.Free(p)
}

// findChunk locates the arena and chunk index starting exactly at p.
func (h *Heap) findChunk(p vm.VAddr) (*arena, int) {
	for _, ar := range h.arenas {
		if p < ar.base || p >= ar.base+vm.VAddr(ar.bytes()) {
			continue
		}
		off := int(p - ar.base)
		i := sort.Search(len(ar.chunks), func(i int) bool { return ar.chunks[i].off >= off })
		if i < len(ar.chunks) && ar.chunks[i].off == off {
			return ar, i
		}
		return nil, 0
	}
	return nil, 0
}

// coalesce merges adjacent free chunks.
func (h *Heap) coalesce(ar *arena) {
	out := ar.chunks[:0]
	for _, c := range ar.chunks {
		if len(out) > 0 {
			last := &out[len(out)-1]
			if last.free && c.free && last.off+last.size == c.off {
				last.size += c.size
				continue
			}
		}
		out = append(out, c)
	}
	ar.chunks = out
}

// releaseArena unmaps a fully-free arena. The arena's metadata is dropped
// before the unmap: if the kernel fails to release some pages (an injected
// zero-on-free), those pages leak as a dangling mapping, but the heap's
// own chunk accounting stays consistent and a retried Free cannot
// double-release the arena. The dropped record becomes the heap's spare.
func (h *Heap) releaseArena(ar *arena) error {
	for i, a := range h.arenas {
		if a == ar {
			h.arenas = append(h.arenas[:i], h.arenas[i+1:]...)
			h.spare = ar
			h.stats.ArenasReleased++
			return h.k.VM().Unmap(h.pid, ar.base, ar.pages)
		}
	}
	return ErrCorrupted
}

// SizeOf returns the usable size of an allocation.
func (h *Heap) SizeOf(p vm.VAddr) (int, error) {
	if pages, ok := h.aligned[p]; ok {
		return pages * mem.PageSize, nil
	}
	ar, i := h.findChunk(p)
	if ar == nil || ar.chunks[i].free {
		return 0, fmt.Errorf("%w: %#x", ErrBadFree, p)
	}
	return ar.chunks[i].size, nil
}

// Memalign maps a dedicated page-aligned region of npages — the
// posix_memalign call at the heart of RSA_memory_align. The region is its
// own kernel mapping, so it is naturally page-aligned and survives COW
// sharing as a single physical copy while nobody writes to it.
func (h *Heap) Memalign(npages int) (vm.VAddr, error) {
	if npages <= 0 {
		return 0, fmt.Errorf("%w: %d pages", ErrBadSize, npages)
	}
	base, err := h.k.VM().MapAnon(h.pid, npages, "memalign")
	if err != nil {
		return 0, err
	}
	h.aligned[base] = npages
	h.stats.Mallocs++
	return base, nil
}

// Mlock pins the pages of an aligned region against swap-out.
func (h *Heap) Mlock(p vm.VAddr) error {
	pages, ok := h.aligned[p]
	if !ok {
		return fmt.Errorf("%w: mlock target %#x", ErrBadFree, p)
	}
	return h.k.VM().Mlock(h.pid, p, pages)
}

// Write stores bytes at a heap address.
func (h *Heap) Write(p vm.VAddr, b []byte) error {
	return h.k.VM().Write(h.pid, p, b)
}

// Read loads n bytes from a heap address.
func (h *Heap) Read(p vm.VAddr, n int) ([]byte, error) {
	return h.k.VM().Read(h.pid, p, n)
}

// ReadInto loads len(dst) bytes from a heap address into dst; on error dst
// is cleared.
func (h *Heap) ReadInto(p vm.VAddr, dst []byte) error {
	return h.k.VM().ReadInto(h.pid, p, dst)
}

// zeroPage is the source of every Zero: it is never written.
var zeroPage [mem.PageSize]byte

// Zero clears n bytes at a heap address, one vm.Write per page the span
// touches, so each frame gets the one write a single n-byte Write would
// give it.
func (h *Heap) Zero(p vm.VAddr, n int) error {
	for {
		take := min(n, mem.PageSize-p.Offset())
		if err := h.k.VM().Write(h.pid, p, zeroPage[:take]); err != nil {
			return err
		}
		if n -= take; n <= 0 {
			return nil
		}
		p += vm.VAddr(take)
	}
}

// LiveBytes returns the total bytes currently allocated (excluding aligned
// regions).
func (h *Heap) LiveBytes() int {
	total := 0
	for _, ar := range h.arenas {
		for _, c := range ar.chunks {
			if !c.free {
				total += c.size
			}
		}
	}
	return total
}

// CheckConsistency validates heap invariants: chunks cover each arena
// exactly, sorted, non-overlapping.
func (h *Heap) CheckConsistency() error {
	for _, ar := range h.arenas {
		off := 0
		for _, c := range ar.chunks {
			if c.off != off {
				return fmt.Errorf("libc: arena %#x chunk gap at %d (chunk off %d)", ar.base, off, c.off)
			}
			if c.size <= 0 {
				return fmt.Errorf("libc: arena %#x empty chunk at %d", ar.base, c.off)
			}
			off += c.size
		}
		if off != ar.bytes() {
			return fmt.Errorf("libc: arena %#x covers %d of %d bytes", ar.base, off, ar.bytes())
		}
	}
	return nil
}
