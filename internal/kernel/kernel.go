// Package kernel assembles the simulated machine: physical memory, the buddy
// page allocator, virtual memory, the page cache, the filesystem and the
// process table, behind a syscall-flavoured facade.
//
// The paper's kernel-level countermeasures map onto Config fields:
//
//   - DeallocPolicy = alloc.PolicyZeroOnFree is the free_hot_cold_page /
//     clear_highpage patch ("unallocated memory never holds a key").
//   - fs.ONoCache on ReadFile is the new open-flag patch from the integrated
//     solution (evict + scrub the PEM file's page-cache entry).
//   - EncryptSwap is the Provos-style swap-encryption mitigation discussed
//     in related work.
//
// Everything else (the unpatched machine) deliberately reproduces the leaky
// behaviour the attacks need: pages freed with contents intact, a page cache
// that never forgets, and an ext2 that leaks stale blocks from mkdir.
package kernel

import (
	"errors"
	"fmt"
	"math/rand"

	"memshield/internal/fault"
	"memshield/internal/kernel/alloc"
	"memshield/internal/kernel/fs"
	"memshield/internal/kernel/pagecache"
	"memshield/internal/kernel/proc"
	"memshield/internal/kernel/vm"
	"memshield/internal/mem"
	"memshield/internal/trace"
)

// Config describes the machine to boot.
type Config struct {
	// MemPages is the number of physical page frames. Required.
	MemPages int
	// SwapPages is the size of the swap device in pages (0 = no swap).
	SwapPages int
	// EncryptSwap enables swap encryption.
	EncryptSwap bool
	// DeallocPolicy selects what happens to freed pages' contents.
	// Zero value defaults to alloc.PolicyRetain (unpatched kernel).
	DeallocPolicy alloc.Policy
	// FSLeakFixed applies the upstream ext2 fix so Mkdir leaks nothing.
	FSLeakFixed bool
	// TraceEvents, when positive, enables the kernel event tracer with a
	// ring buffer of that capacity (see the trace package).
	TraceEvents int
	// FaultPlan, when non-nil, enables deterministic fault injection
	// across the machine's syscall surface (see the fault package). The
	// plan is compiled into one per-machine injector shared by alloc, vm,
	// pagecache, fs and (via Injector) libc.
	FaultPlan *fault.Plan
}

// Kernel is one booted simulated machine.
type Kernel struct {
	memory   *mem.Memory
	alloc    *alloc.Allocator
	vm       *vm.Manager
	cache    *pagecache.Cache
	fs       *fs.FS
	procs    *proc.Table
	tracer   *trace.Ring
	injector *fault.Injector
	clock    uint64
}

// New boots a machine from the config.
func New(cfg Config) (*Kernel, error) {
	if cfg.DeallocPolicy == 0 {
		cfg.DeallocPolicy = alloc.PolicyRetain
	}
	m, err := mem.New(cfg.MemPages)
	if err != nil {
		return nil, fmt.Errorf("kernel: %w", err)
	}
	a, err := alloc.New(m, cfg.DeallocPolicy)
	if err != nil {
		return nil, fmt.Errorf("kernel: %w", err)
	}
	vmm := vm.NewManager(m, a, cfg.SwapPages, cfg.EncryptSwap)
	cache := pagecache.New(m, a)
	var fsOpts []fs.Option
	if cfg.FSLeakFixed {
		fsOpts = append(fsOpts, fs.WithLeakFixed())
	}
	k := &Kernel{
		memory: m,
		alloc:  a,
		vm:     vmm,
		cache:  cache,
		fs:     fs.New(m, a, cache, fsOpts...),
		procs:  proc.NewTable(),
	}
	if cfg.TraceEvents > 0 {
		k.tracer = trace.NewRing(cfg.TraceEvents)
		a.SetSink(k.tracer)
		vmm.SetSink(k.tracer)
	}
	if cfg.FaultPlan != nil {
		k.injector = fault.NewInjector(cfg.FaultPlan)
		a.SetInjector(k.injector)
		vmm.SetInjector(k.injector)
		cache.SetInjector(k.injector)
		k.fs.SetInjector(k.injector)
	}
	return k, nil
}

// Subsystem accessors.

// Mem returns the physical memory.
func (k *Kernel) Mem() *mem.Memory { return k.memory }

// Alloc returns the page allocator.
func (k *Kernel) Alloc() *alloc.Allocator { return k.alloc }

// VM returns the virtual memory manager.
func (k *Kernel) VM() *vm.Manager { return k.vm }

// Cache returns the page cache.
func (k *Kernel) Cache() *pagecache.Cache { return k.cache }

// FS returns the filesystem.
func (k *Kernel) FS() *fs.FS { return k.fs }

// Procs returns the process table.
func (k *Kernel) Procs() *proc.Table { return k.procs }

// Trace returns the kernel event tracer (nil when tracing is disabled).
func (k *Kernel) Trace() *trace.Ring { return k.tracer }

// Injector returns the machine's fault injector (nil when fault injection
// is disabled). User-space layers built on the kernel (libc) pull their
// injection decisions from here so one plan covers the whole machine.
func (k *Kernel) Injector() *fault.Injector { return k.injector }

// Clock returns the current tick count.
func (k *Kernel) Clock() uint64 { return k.clock }

// Tick advances simulated time by one unit, driving time-based policies
// (secure deallocation's deferred zeroing).
func (k *Kernel) Tick() {
	k.clock++
	k.alloc.Tick()
}

// MixFreeLists redistributes the current free pages uniformly through the
// free lists WITHOUT touching their contents: every free page is allocated
// raw (the allocator never zeroes on allocation) and released again in a
// seeded random permutation. After heavy churn the most recently freed —
// and most secret-laden — pages sit at the LIFO top; on a live machine,
// ongoing unrelated allocations disperse them throughout the pool before an
// attacker starts sampling it. Unlike ScrambleFreeMemory this reserves
// nothing and preserves stale data exactly.
func (k *Kernel) MixFreeLists(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	var pages []mem.PageNum
	for {
		pn, err := k.alloc.AllocPage(mem.OwnerKernel)
		if err != nil {
			break
		}
		pages = append(pages, pn)
	}
	rng.Shuffle(len(pages), func(i, j int) { pages[i], pages[j] = pages[j], pages[i] })
	for _, pn := range pages {
		if err := k.alloc.Free(pn); err != nil {
			return fmt.Errorf("kernel: mix: %w", err)
		}
	}
	return nil
}

// RunBackgroundActivity models unrelated system work between the victim's
// traffic and an attack: a short-lived process maps, dirties and releases
// the given number of pages. Because anonymous mappings are zero-filled,
// this permanently destroys the stale contents of the pages it happens to
// recycle — the reason real attacks recover only a fraction of the copies
// that were ever freed.
func (k *Kernel) RunBackgroundActivity(pages int, seed int64) error {
	if pages <= 0 {
		return nil
	}
	pid, err := k.Spawn(0, "background")
	if err != nil {
		return err
	}
	// Mappings are held until the process exits so each batch recycles
	// DISTINCT pages (immediately unmapping would just re-take the same
	// LIFO top over and over).
	const batch = 64
	rng := rand.New(rand.NewSource(seed))
	junk := make([]byte, mem.PageSize)
	for done := 0; done < pages; done += batch {
		n := batch
		if n > pages-done {
			n = pages - done
		}
		va, err := k.vm.MapAnon(pid, n, "scratch")
		if err != nil {
			break // machine under pressure: background work just stops
		}
		rng.Read(junk)
		if err := k.vm.Write(pid, va, junk); err != nil {
			return err
		}
	}
	return k.Exit(pid)
}

// Spawn creates a brand-new process (fresh empty address space).
func (k *Kernel) Spawn(ppid int, name string) (int, error) {
	p := k.procs.Create(ppid, name)
	if _, err := k.vm.NewSpace(p.PID); err != nil {
		return 0, err
	}
	return p.PID, nil
}

// Fork clones an existing process, COW-sharing its memory.
func (k *Kernel) Fork(ppid int, name string) (int, error) {
	if !k.procs.Exists(ppid) {
		return 0, fmt.Errorf("kernel: fork: %w: pid %d", proc.ErrNoProcess, ppid)
	}
	child := k.procs.Create(ppid, name)
	if err := k.vm.Fork(ppid, child.PID); err != nil {
		return 0, err
	}
	return child.PID, nil
}

// Exit terminates a process: its address space is torn down (pages become
// unallocated, contents surviving per the dealloc policy) and the table
// entry is reaped. Teardown is best-effort: a DestroySpace failure (a page
// whose zero-on-free could not run, say) is reported, but the address space
// is gone regardless (DestroySpace guarantees that) and the table entry is
// still reaped — a failed exit never leaves a zombie that blocks the
// machine, only leaked-but-consistent frames named in the error.
func (k *Kernel) Exit(pid int) error {
	if err := k.procs.Exit(pid); err != nil {
		return err
	}
	var errs error
	if k.vm.HasSpace(pid) {
		errs = k.vm.DestroySpace(pid)
	}
	return errors.Join(errs, k.procs.Reap(pid))
}

// ReadFile performs a file read on behalf of a process, honouring ONoCache.
func (k *Kernel) ReadFile(path string, flags fs.OpenFlag) ([]byte, error) {
	return k.fs.ReadFile(path, flags)
}

// MemoryPressure evicts up to n pages from the given process to swap,
// simulating the VM scanner under pressure. Returns pages evicted.
func (k *Kernel) MemoryPressure(pid, n int) (int, error) {
	return k.vm.SwapOutVictims(pid, n)
}

// ScrambleFreeMemory makes the allocator's free lists look like a machine
// that has been up for a while instead of one fresh off the boot loader: it
// allocates every free page, permanently reserves a random ~6% of them as
// "boot-time kernel data" (which blocks buddy coalescing back into giant
// address-ordered blocks), and releases the rest in a seeded random
// permutation. Afterwards the free lists are fragmented and shuffled, so a
// server's working set — and thus its key copies — scatters across the
// whole physical range, the distribution the paper's partial-disclosure
// attacks implicitly rely on. Call once after boot, before starting
// servers.
func (k *Kernel) ScrambleFreeMemory(seed int64) error {
	const holdoutStride = 16 // reserve ~1/16 of pages
	rng := rand.New(rand.NewSource(seed))
	pages := make([]mem.PageNum, 0, k.alloc.FreePages())
	for {
		pn, err := k.alloc.AllocPage(mem.OwnerKernel)
		if err != nil {
			break
		}
		pages = append(pages, pn)
	}
	rng.Shuffle(len(pages), func(i, j int) { pages[i], pages[j] = pages[j], pages[i] })
	for i, pn := range pages {
		if i%holdoutStride == 0 {
			continue // boot-reserved kernel page, never freed
		}
		if err := k.alloc.Free(pn); err != nil {
			return fmt.Errorf("kernel: scramble: %w", err)
		}
	}
	// Scrambling is housekeeping, not workload: don't let it skew the
	// secure-dealloc pending queue.
	k.alloc.Tick()
	return nil
}
