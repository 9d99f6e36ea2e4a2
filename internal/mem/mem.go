// Package mem implements the simulated physical memory that every other
// subsystem in memshield is built on.
//
// The entire "machine" is a single byte array divided into fixed-size page
// frames, mapped outside the Go heap where the system allows it. Each frame
// carries the metadata a real kernel keeps in its struct page: allocation
// state, an owner classification (kernel, user, page cache), a reference
// count, and a reverse mapping to the processes that have the frame in
// their address space. Because all key material handled by the
// simulated OpenSSL layer lives inside this slice, a linear scan over it is
// exactly the paper's scanmemory loadable kernel module, and a disclosure
// attack is just a read of some window of the slice.
package mem

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// PageSize is the size of one simulated page frame in bytes. It matches the
// 4 KiB pages of the paper's IA-32 testbed.
const PageSize = 4096

// PageShift is log2(PageSize), used to convert addresses to frame numbers.
const PageShift = 12

// Addr is a physical address into the simulated memory.
type Addr uint64

// PageNum is a physical page frame number (Addr >> PageShift).
type PageNum uint64

// Page returns the frame number containing the address.
func (a Addr) Page() PageNum { return PageNum(a >> PageShift) }

// Base returns the physical address of the first byte of the frame.
func (p PageNum) Base() Addr { return Addr(p) << PageShift }

// FrameState describes whether a frame is currently handed out.
type FrameState uint8

// Frame states. A frame is either on the allocator's free lists or owned by
// some subsystem. There is deliberately no "uninitialized" state: the machine
// boots with every frame free and zeroed.
const (
	FrameFree FrameState = iota + 1
	FrameAllocated
)

func (s FrameState) String() string {
	switch s {
	case FrameFree:
		return "free"
	case FrameAllocated:
		return "allocated"
	default:
		return fmt.Sprintf("FrameState(%d)", uint8(s))
	}
}

// Owner classifies who holds an allocated frame. It mirrors the distinction
// the paper's scanner makes when attributing matches: user process pages
// (via the anon-VMA reverse map), kernel pages, and page-cache pages.
type Owner uint8

// Frame owner kinds.
const (
	OwnerNone Owner = iota
	OwnerKernel
	OwnerUser
	OwnerPageCache
	OwnerSwap
)

func (o Owner) String() string {
	switch o {
	case OwnerNone:
		return "none"
	case OwnerKernel:
		return "kernel"
	case OwnerUser:
		return "user"
	case OwnerPageCache:
		return "pagecache"
	case OwnerSwap:
		return "swap"
	default:
		return fmt.Sprintf("Owner(%d)", uint8(o))
	}
}

// Frame is the per-page metadata (struct page analog).
type Frame struct {
	State FrameState
	Owner Owner
	// RefCount counts address-space mappings plus non-VM holders. COW
	// sharing after fork is expressed as RefCount > 1.
	RefCount int
	// Locked marks mlock'd frames which must never be swapped out.
	Locked bool
	// zeroed records that every byte of the frame is zero, so ZeroPage can
	// skip the clear and Release clears only the frames without it. New,
	// ZeroPage and Release set it; touch clears it on every Write, Zero
	// and CopyPage. Write, Zero, ZeroPage, CopyPage and Release are the
	// only writers of the physical array (physaccess flags any write
	// through a View alias, in every package), so the mark is exact. The
	// zero value means "may hold non-zero bytes": a Frame built or reset
	// outside this package is conservatively dirty. It sits in the padding
	// after Locked, so Frame stays the size it was.
	zeroed bool
	// gen is the frame's write generation: the value of the memory-wide
	// mutation counter at the last time any byte of the frame changed.
	// Incremental scanners compare generations to skip untouched frames;
	// a ZeroPage of a frame already all-zero changes no byte and does not
	// stamp it.
	gen uint64
	// mappers is the reverse map: PIDs of processes that have this frame
	// in their page tables. Sorted, no duplicates.
	mappers []int
}

// Gen returns the frame's write generation. Generations are assigned from
// a single memory-wide monotonic counter, so the maximum generation over
// any set of frames strictly increases whenever one of them is written.
func (f *Frame) Gen() uint64 { return f.gen }

// Memory is the simulated physical memory of one machine. A method that
// reads data after its last use of m keeps m alive to the end of the read
// with runtime.KeepAlive: data may be a mapping that m's finalizer unmaps.
type Memory struct {
	data   []byte
	frames []Frame
	// muts counts content mutations (non-empty Write/Zero/CopyPage calls,
	// and ZeroPage calls on a frame not already all-zero). Each touched
	// frame's gen is stamped with the post-increment value.
	muts uint64
}

// New creates a machine with the given number of page frames, all free and
// zeroed. It reuses the arrays of a released memory of the same size when
// there is one, and allocates them otherwise. It returns an error for a
// non-positive size or a page array the system cannot map.
func New(numPages int) (*Memory, error) {
	if numPages <= 0 {
		return nil, fmt.Errorf("mem: numPages must be positive, got %d", numPages)
	}
	m := released.pop(numPages)
	if m == nil {
		data, err := newArray(numPages * PageSize)
		if err != nil {
			return nil, err
		}
		m = &Memory{data: data, frames: make([]Frame, numPages)}
		for i := range m.frames {
			m.frames[i] = bootFrame
		}
	}
	if mapped {
		runtime.SetFinalizer(m, (*Memory).unmap)
	}
	return m, nil
}

// unmap is the finalizer of a handle dropped without Release: nothing else
// returns its mapped array.
func (m *Memory) unmap() { freeArray(m.data) }

// bootFrame is every frame of a new machine: free, unowned and all-zero.
var bootFrame = Frame{State: FrameFree, Owner: OwnerNone, zeroed: true}

// Release hands the memory's arrays to a later New of the same page
// count, reset to exactly what New returns: every frame not marked zero is
// cleared, every frame becomes free, unowned, unmapped, unlocked and
// marked zero at generation 0, and the reuser's mutation counter starts at
// 0. The zero mark is exact (DESIGN.md §5, invariant 10), so no frame
// left uncleared can carry a byte of this machine into the next. The
// handle is left empty: later reads and writes fail, ValidPage is false,
// and Frame panics. Releasing an empty handle does nothing.
func (m *Memory) Release() {
	if m.frames == nil {
		return
	}
	if mapped {
		runtime.SetFinalizer(m, nil)
	}
	for i := range m.frames {
		if !m.frames[i].zeroed {
			pn := PageNum(i)
			clear(m.data[pn.Base() : pn.Base()+PageSize])
		}
		m.frames[i] = bootFrame
	}
	released.push(Memory{data: m.data, frames: m.frames})
	*m = Memory{}
}

// released is the free list behind Release and New. It holds memories of
// one page count; releasing another size drops and unmaps them first, so
// it never keeps more arrays than were live at once. A mutex, not a
// sync.Pool: a pool's per-P slot can hide a released memory from a New on
// another P, which then allocates afresh.
var released freeList

type freeList struct {
	mu    sync.Mutex
	pages int
	mems  []Memory
}

func (l *freeList) push(m Memory) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.pages != len(m.frames) {
		for _, old := range l.mems {
			freeArray(old.data)
		}
		clear(l.mems)
		l.pages, l.mems = len(m.frames), l.mems[:0]
	}
	l.mems = append(l.mems, m)
}

// pop returns the last released memory of numPages frames, or nil.
func (l *freeList) pop(numPages int) *Memory {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.mems)
	if n == 0 || l.pages != numPages {
		return nil
	}
	m := l.mems[n-1]
	l.mems[n-1] = Memory{}
	l.mems = l.mems[:n-1]
	return &m
}

// NumPages returns the number of page frames.
func (m *Memory) NumPages() int { return len(m.frames) }

// Size returns the total memory size in bytes.
func (m *Memory) Size() int { return len(m.data) }

// ValidPage reports whether pn names an existing frame (pfn_valid analog).
func (m *Memory) ValidPage(pn PageNum) bool { return int(pn) < len(m.frames) }

// ValidRange reports whether [addr, addr+n) lies inside physical memory.
func (m *Memory) ValidRange(addr Addr, n int) bool {
	return n >= 0 && uint64(addr) <= uint64(len(m.data)) && uint64(addr)+uint64(n) <= uint64(len(m.data))
}

// Frame returns a pointer to the metadata of frame pn. The pointer stays
// valid for the lifetime of the Memory; callers must not retain it across
// reconfiguration. Panics on an invalid frame number: frame numbers are
// produced by the allocator and an out-of-range one is a simulator bug, not
// a recoverable condition.
func (m *Memory) Frame(pn PageNum) *Frame {
	return &m.frames[pn]
}

// Mutations returns the memory-wide mutation counter: it increases on
// every content-changing operation, so an unchanged value between two
// observations proves no byte of physical memory changed in between.
// Frame-state changes (alloc/free, mappers, locking) do not count — they
// alter metadata, not contents — and neither does a ZeroPage of a frame
// that already holds only zeros.
func (m *Memory) Mutations() uint64 { return m.muts }

// touch stamps the write generation of every frame overlapping
// [addr, addr+n) and marks each as possibly non-zero. Callers have already
// validated the range.
func (m *Memory) touch(addr Addr, n int) {
	if n <= 0 {
		return
	}
	m.muts++
	last := (addr + Addr(n) - 1).Page()
	for pn := addr.Page(); pn <= last; pn++ {
		m.frames[pn].gen = m.muts
		m.frames[pn].zeroed = false
	}
}

// Read copies n bytes starting at addr into a fresh slice.
func (m *Memory) Read(addr Addr, n int) ([]byte, error) {
	if !m.ValidRange(addr, n) {
		return nil, fmt.Errorf("mem: read [%d,+%d) outside %d-byte memory", addr, n, len(m.data))
	}
	out := make([]byte, n)
	copy(out, m.data[addr:])
	runtime.KeepAlive(m)
	return out, nil
}

// ReadInto copies len(dst) bytes starting at addr into dst, so a caller
// assembling a read from several frames makes no copy of its own.
func (m *Memory) ReadInto(dst []byte, addr Addr) error {
	if !m.ValidRange(addr, len(dst)) {
		return fmt.Errorf("mem: read [%d,+%d) outside %d-byte memory", addr, len(dst), len(m.data))
	}
	copy(dst, m.data[addr:])
	runtime.KeepAlive(m)
	return nil
}

// Write copies b into memory at addr.
func (m *Memory) Write(addr Addr, b []byte) error {
	if !m.ValidRange(addr, len(b)) {
		return fmt.Errorf("mem: write [%d,+%d) outside %d-byte memory", addr, len(b), len(m.data))
	}
	copy(m.data[addr:], b)
	m.touch(addr, len(b))
	return nil
}

// Zero clears n bytes starting at addr.
func (m *Memory) Zero(addr Addr, n int) error {
	if !m.ValidRange(addr, n) {
		return fmt.Errorf("mem: zero [%d,+%d) outside %d-byte memory", addr, n, len(m.data))
	}
	clear(m.data[addr : addr+Addr(n)])
	m.touch(addr, n)
	return nil
}

// ZeroPage clears one whole frame (clear_highpage analog). A frame that
// already holds only zeros is left alone: no byte changes, so neither the
// mutation counter nor the frame's generation moves.
func (m *Memory) ZeroPage(pn PageNum) error {
	if !m.ValidPage(pn) {
		return fmt.Errorf("mem: zero of invalid page %d", pn)
	}
	if m.frames[pn].zeroed {
		return nil
	}
	clear(m.data[pn.Base() : pn.Base()+PageSize])
	m.touch(pn.Base(), PageSize)
	m.frames[pn].zeroed = true
	return nil
}

// CopyPage copies the contents of frame src to frame dst (COW break).
func (m *Memory) CopyPage(dst, src PageNum) error {
	if !m.ValidPage(dst) || !m.ValidPage(src) {
		return fmt.Errorf("mem: copy page %d -> %d out of range", src, dst)
	}
	copy(m.data[dst.Base():dst.Base()+PageSize], m.data[src.Base():src.Base()+PageSize])
	m.touch(dst.Base(), PageSize)
	return nil
}

// zeroPage is the all-zero page PageIsZero compares frames against.
var zeroPage [PageSize]byte

// PageIsZero reports whether every byte of the frame is zero. It compares
// the bytes, never the frame's zero mark, so it can audit that mark.
func (m *Memory) PageIsZero(pn PageNum) bool {
	if !m.ValidPage(pn) {
		return false
	}
	zero := bytes.Equal(m.data[pn.Base():pn.Base()+PageSize], zeroPage[:])
	runtime.KeepAlive(m)
	return zero
}

// FalseZero returns the first frame marked all-zero that holds a non-zero
// byte, checked with PageIsZero's byte scan; ok is false when every mark
// is true. It exists for consistency audits.
func (m *Memory) FalseZero() (pn PageNum, ok bool) {
	for i := range m.frames {
		if m.frames[i].zeroed && !m.PageIsZero(PageNum(i)) {
			return PageNum(i), true
		}
	}
	return 0, false
}

// View returns a read-only window over [addr, addr+n). It aliases the live
// memory; callers must treat it as immutable, must not retain it across
// writes, and must keep m reachable and unreleased until their last read
// of it: the array may be a mapping that m's finalizer unmaps, and Release
// hands it to the next machine. A view never leaves the function that
// took it (physaccess enforces this).
// Disclosure attacks use View to model "the attacker got these bytes"
// without doubling memory.
func (m *Memory) View(addr Addr, n int) ([]byte, error) {
	if !m.ValidRange(addr, n) {
		return nil, fmt.Errorf("mem: view [%d,+%d) outside %d-byte memory", addr, n, len(m.data))
	}
	return m.data[addr : addr+Addr(n) : addr+Addr(n)], nil
}

// FindAll returns the physical addresses of every occurrence of pattern, in
// ascending order. This is the core of the scanmemory linear search.
func (m *Memory) FindAll(pattern []byte) []Addr {
	if len(pattern) == 0 {
		return nil
	}
	var out []Addr
	from := 0
	for {
		i := bytes.Index(m.data[from:], pattern)
		if i < 0 {
			return out
		}
		out = append(out, Addr(from+i))
		from += i + 1
	}
}

// AddMapper records that process pid has this frame mapped (reverse map
// insert). Duplicate inserts are ignored.
func (f *Frame) AddMapper(pid int) {
	i := sort.SearchInts(f.mappers, pid)
	if i < len(f.mappers) && f.mappers[i] == pid {
		return
	}
	f.mappers = append(f.mappers, 0)
	copy(f.mappers[i+1:], f.mappers[i:])
	f.mappers[i] = pid
}

// RemoveMapper removes process pid from the reverse map. Removing an absent
// pid is a no-op.
func (f *Frame) RemoveMapper(pid int) {
	i := sort.SearchInts(f.mappers, pid)
	if i < len(f.mappers) && f.mappers[i] == pid {
		f.mappers = append(f.mappers[:i], f.mappers[i+1:]...)
	}
}

// Mappers returns a copy of the PIDs that map this frame, sorted ascending.
func (f *Frame) Mappers() []int {
	out := make([]int, len(f.mappers))
	copy(out, f.mappers)
	return out
}

// NumMappers returns how many processes map this frame.
func (f *Frame) NumMappers() int { return len(f.mappers) }

// AppendMappers appends the PIDs that map this frame, ascending, to dst.
func (f *Frame) AppendMappers(dst []int) []int { return append(dst, f.mappers...) }

// HasMapper reports whether pid maps this frame.
func (f *Frame) HasMapper(pid int) bool {
	i := sort.SearchInts(f.mappers, pid)
	return i < len(f.mappers) && f.mappers[i] == pid
}

// ClearMappers empties the reverse map (used when a frame is freed).
func (f *Frame) ClearMappers() { f.mappers = f.mappers[:0] }
