package libc

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"memshield/internal/fault"
	"memshield/internal/kernel"
	"memshield/internal/kernel/alloc"
	"memshield/internal/kernel/vm"
	"memshield/internal/mem"
)

func newHeap(t testing.TB, pages int, policy alloc.Policy) (*kernel.Kernel, int, *Heap) {
	t.Helper()
	k, err := kernel.New(kernel.Config{MemPages: pages, DeallocPolicy: policy})
	if err != nil {
		t.Fatal(err)
	}
	pid, err := k.Spawn(0, "proc")
	if err != nil {
		t.Fatal(err)
	}
	return k, pid, New(k, pid)
}

func TestMallocWriteReadFree(t *testing.T) {
	_, _, h := newHeap(t, 256, alloc.PolicyRetain)
	p, err := h.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello heap world, this is data")
	if err := h.Write(p, data); err != nil {
		t.Fatal(err)
	}
	got, err := h.Read(p, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Read = %q, %v", got, err)
	}
	if n, err := h.SizeOf(p); err != nil || n < 100 {
		t.Fatalf("SizeOf = %d, %v", n, err)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := h.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestMallocErrors(t *testing.T) {
	_, _, h := newHeap(t, 256, alloc.PolicyRetain)
	if _, err := h.Malloc(0); !errors.Is(err, ErrBadSize) {
		t.Fatalf("Malloc(0) = %v", err)
	}
	if _, err := h.Malloc(-5); !errors.Is(err, ErrBadSize) {
		t.Fatalf("Malloc(-5) = %v", err)
	}
	if err := h.Free(0xDEAD); !errors.Is(err, ErrBadFree) {
		t.Fatalf("Free(bad) = %v", err)
	}
	p, _ := h.Malloc(64)
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	// Arena was released (only allocation), so a second free is ErrBadFree.
	if err := h.Free(p); err == nil {
		t.Fatal("free after release: want error")
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	_, _, h := newHeap(t, 256, alloc.PolicyRetain)
	p1, _ := h.Malloc(64)
	p2, _ := h.Malloc(64) // keeps the arena alive after p1 is freed
	if err := h.Free(p1); err != nil {
		t.Fatal(err)
	}
	err := h.Free(p1)
	if err == nil {
		t.Fatal("double free: want error")
	}
	if err := h.Free(p2); err != nil {
		t.Fatal(err)
	}
}

func TestFreeDoesNotClear(t *testing.T) {
	k, _, h := newHeap(t, 256, alloc.PolicyRetain)
	p1, _ := h.Malloc(64)
	p2, _ := h.Malloc(64) // pin the arena
	secret := []byte("KEY-IN-FREED-CHUNK-ABCDEF")
	if err := h.Write(p1, secret); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p1); err != nil {
		t.Fatal(err)
	}
	// The freed chunk's bytes survive inside still-allocated arena pages:
	// the "copies in allocated memory" phenomenon.
	if len(k.Mem().FindAll(secret)) != 1 {
		t.Fatal("free must not clear chunk contents")
	}
	_ = p2
}

func TestFreeZeroClears(t *testing.T) {
	k, _, h := newHeap(t, 256, alloc.PolicyRetain)
	p1, _ := h.Malloc(64)
	if _, err := h.Malloc(64); err != nil {
		t.Fatal(err)
	}
	secret := []byte("KEY-TO-SCRUB-0123456789")
	if err := h.Write(p1, secret); err != nil {
		t.Fatal(err)
	}
	if err := h.FreeZero(p1); err != nil {
		t.Fatal(err)
	}
	if len(k.Mem().FindAll(secret)) != 0 {
		t.Fatal("FreeZero must scrub the chunk")
	}
}

// FreeZero on an arena that stays mapped makes no Go allocation: Zero
// writes from one shared zero page, not a fresh buffer per call.
func TestFreeZeroAllocs(t *testing.T) {
	_, _, h := newHeap(t, 256, alloc.PolicyRetain)
	if _, err := h.Malloc(64); err != nil { // keeps the arena mapped
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		p, err := h.Malloc(300)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.FreeZero(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Malloc+FreeZero = %v allocations, want 0", allocs)
	}
}

// A Malloc that maps a fresh arena and the Free that releases it make no
// Go allocation after the first cycle: the kernel pools the arena's page
// table and the heap keeps its record.
func TestArenaCycleZeroAllocs(t *testing.T) {
	_, _, h := newHeap(t, 256, alloc.PolicyZeroOnFree)
	allocs := testing.AllocsPerRun(100, func() {
		p, err := h.Malloc(4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Free(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Malloc+Free of a fresh arena = %v allocations, want 0", allocs)
	}
	if s := h.Stats(); s.ArenasMapped != s.ArenasReleased || s.ArenasMapped < 100 {
		t.Fatalf("arenas mapped %d, released %d: every cycle must map and release one", s.ArenasMapped, s.ArenasReleased)
	}
}

// Zero clears exactly its span, across page boundaries.
func TestZeroSpansPages(t *testing.T) {
	_, _, h := newHeap(t, 256, alloc.PolicyRetain)
	base, err := h.Memalign(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Write(base, bytes.Repeat([]byte{0xAB}, 3*mem.PageSize)); err != nil {
		t.Fatal(err)
	}
	const off, n = 100, mem.PageSize + 300
	if err := h.Zero(base+off, n); err != nil {
		t.Fatal(err)
	}
	got, err := h.Read(base, 3*mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		want := byte(0xAB)
		if i >= off && i < off+n {
			want = 0
		}
		if b != want {
			t.Fatalf("byte %d = %#x, want %#x", i, b, want)
		}
	}
}

func TestArenaReleaseMovesDataToUnallocated(t *testing.T) {
	k, _, h := newHeap(t, 256, alloc.PolicyRetain)
	p, _ := h.Malloc(64)
	secret := []byte("KEY-ESCAPES-TO-UNALLOCATED")
	if err := h.Write(p, secret); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	if h.Stats().ArenasReleased != 1 {
		t.Fatal("sole allocation freed: arena should be released")
	}
	// Data persists, now in unallocated memory.
	locs := k.Mem().FindAll(secret)
	if len(locs) != 1 {
		t.Fatal("secret should persist after arena release")
	}
	if k.Mem().Frame(locs[0].Page()).State != mem.FrameFree {
		t.Fatal("secret should be in a FREE frame after arena release")
	}
}

func TestCalloc(t *testing.T) {
	_, _, h := newHeap(t, 256, alloc.PolicyRetain)
	// Dirty then free a chunk; calloc of the same size must return zeroed
	// memory even if it reuses the chunk.
	p, _ := h.Malloc(64)
	q, _ := h.Malloc(64)
	if err := h.Write(p, bytes.Repeat([]byte{0xFF}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	c, err := h.Calloc(64)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := h.Read(c, 64)
	for i, b := range got {
		if b != 0 {
			t.Fatalf("calloc byte %d = %#x", i, b)
		}
	}
	_ = q
}

func TestMallocReusesFreedChunkWithStaleData(t *testing.T) {
	_, _, h := newHeap(t, 256, alloc.PolicyRetain)
	p, _ := h.Malloc(64)
	pin, _ := h.Malloc(64)
	if err := h.Write(p, []byte("STALE!")); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	p2, _ := h.Malloc(64)
	if p2 != p {
		t.Fatalf("first-fit should reuse chunk: got %#x, want %#x", p2, p)
	}
	got, _ := h.Read(p2, 6)
	if !bytes.Equal(got, []byte("STALE!")) {
		t.Fatal("malloc must hand out stale contents")
	}
	_ = pin
}

func TestLargeAllocationDedicatedMapping(t *testing.T) {
	_, _, h := newHeap(t, 512, alloc.PolicyRetain)
	n := (arenaPages + 2) * mem.PageSize
	p, err := h.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	if sz, err := h.SizeOf(p); err != nil || sz < n {
		t.Fatalf("SizeOf large = %d, %v", sz, err)
	}
	payload := bytes.Repeat([]byte{0xAB}, n)
	if err := h.Write(p, payload); err != nil {
		t.Fatal(err)
	}
	got, err := h.Read(p, n)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatal("large alloc round trip failed")
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
}

func TestMemalignAndMlock(t *testing.T) {
	k, pid, h := newHeap(t, 256, alloc.PolicyRetain)
	p, err := h.Memalign(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Offset() != 0 {
		t.Fatalf("memalign not page aligned: %#x", p)
	}
	if err := h.Mlock(p); err != nil {
		t.Fatal(err)
	}
	locked, err := k.VM().IsLocked(pid, p)
	if err != nil || !locked {
		t.Fatalf("IsLocked = %v, %v", locked, err)
	}
	if _, err := h.Memalign(0); !errors.Is(err, ErrBadSize) {
		t.Fatalf("Memalign(0) = %v", err)
	}
	if err := h.Mlock(0xBAD000); !errors.Is(err, ErrBadFree) {
		t.Fatalf("Mlock(bad) = %v", err)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
}

func TestCloneSharesAddressesCOW(t *testing.T) {
	k, pid, h := newHeap(t, 256, alloc.PolicyRetain)
	p, _ := h.Malloc(64)
	if err := h.Write(p, []byte("parent-owned")); err != nil {
		t.Fatal(err)
	}
	childPID, err := k.Fork(pid, "child")
	if err != nil {
		t.Fatal(err)
	}
	ch := h.Clone(childPID)
	if ch.PID() != childPID {
		t.Fatal("clone PID wrong")
	}
	got, err := ch.Read(p, 12)
	if err != nil || string(got) != "parent-owned" {
		t.Fatalf("child heap read = %q, %v", got, err)
	}
	// Child write breaks COW; parent unaffected.
	if err := ch.Write(p, []byte("child-write!")); err != nil {
		t.Fatal(err)
	}
	pGot, _ := h.Read(p, 12)
	if string(pGot) != "parent-owned" {
		t.Fatal("parent heap affected by child write")
	}
	if err := ch.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestLiveBytes(t *testing.T) {
	_, _, h := newHeap(t, 256, alloc.PolicyRetain)
	if h.LiveBytes() != 0 {
		t.Fatal("fresh heap LiveBytes != 0")
	}
	p, _ := h.Malloc(100)
	q, _ := h.Malloc(200)
	if h.LiveBytes() < 300 {
		t.Fatalf("LiveBytes = %d, want >= 300", h.LiveBytes())
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	if h.LiveBytes() >= 300 {
		t.Fatal("LiveBytes should drop after free")
	}
	_ = q
}

func TestStats(t *testing.T) {
	_, _, h := newHeap(t, 256, alloc.PolicyRetain)
	p, _ := h.Malloc(10)
	_ = h.Free(p)
	s := h.Stats()
	if s.Mallocs != 1 || s.Frees != 1 || s.ArenasMapped != 1 || s.ArenasReleased != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// Property: random malloc/free/write interleavings keep the heap metadata
// consistent, and every live allocation reads back exactly what was written.
func TestQuickHeapWorkload(t *testing.T) {
	f := func(seed int64) bool {
		k, err := kernel.New(kernel.Config{MemPages: 1024})
		if err != nil {
			return false
		}
		pid, err := k.Spawn(0, "p")
		if err != nil {
			return false
		}
		h := New(k, pid)
		rng := rand.New(rand.NewSource(seed))
		type allocation struct {
			ptr  vm.VAddr
			data []byte
		}
		var live []allocation
		for step := 0; step < 200; step++ {
			if rng.Intn(3) != 0 || len(live) == 0 {
				n := 1 + rng.Intn(2000)
				ptr, err := h.Malloc(n)
				if err != nil {
					continue
				}
				data := make([]byte, n)
				rng.Read(data)
				if err := h.Write(ptr, data); err != nil {
					return false
				}
				live = append(live, allocation{ptr, data})
			} else {
				i := rng.Intn(len(live))
				if err := h.Free(live[i].ptr); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			if h.CheckConsistency() != nil {
				return false
			}
		}
		for _, a := range live {
			got, err := h.Read(a.ptr, len(a.data))
			if err != nil || !bytes.Equal(got, a.data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestReallocGrowMovesAndLeavesStale(t *testing.T) {
	k, _, h := newHeap(t, 256, alloc.PolicyRetain)
	p, err := h.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	pin, err := h.Malloc(64) // keep the arena alive
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("BN-EXPAND-LEAVES-THIS-BEHIND")
	if err := h.Write(p, secret); err != nil {
		t.Fatal(err)
	}
	np, err := h.Realloc(p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if np == p {
		t.Fatal("growth should move the allocation")
	}
	got, err := h.Read(np, len(secret))
	if err != nil || !bytes.Equal(got, secret) {
		t.Fatalf("contents not preserved: %q, %v", got, err)
	}
	// The old chunk's bytes survive — the bn_expand leak.
	if n := len(k.Mem().FindAll(secret)); n != 2 {
		t.Fatalf("secret copies after realloc = %d, want 2 (old + new)", n)
	}
	_ = pin
}

func TestReallocShrinkInPlace(t *testing.T) {
	_, _, h := newHeap(t, 256, alloc.PolicyRetain)
	p, err := h.Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	np, err := h.Realloc(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	if np != p {
		t.Fatal("shrink should stay in place")
	}
}

func TestReallocErrors(t *testing.T) {
	_, _, h := newHeap(t, 256, alloc.PolicyRetain)
	if _, err := h.Realloc(0xBAD0, 64); !errors.Is(err, ErrBadFree) {
		t.Fatalf("realloc of bad ptr = %v", err)
	}
	p, _ := h.Malloc(16)
	if _, err := h.Realloc(p, 0); !errors.Is(err, ErrBadSize) {
		t.Fatalf("realloc to 0 = %v", err)
	}
}

// TestDoubleFreeIsTypedAndHarmless: a double free returns ErrDoubleFree
// (not a panic, not free-list corruption): the chunk accounting stays
// consistent and every other allocation remains usable.
func TestDoubleFreeIsTypedAndHarmless(t *testing.T) {
	_, _, h := newHeap(t, 256, alloc.PolicyRetain)
	p1, _ := h.Malloc(64)
	p2, _ := h.Malloc(64) // keeps the arena alive after p1 is freed
	if err := h.Free(p1); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p1); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("double free = %v, want ErrDoubleFree", err)
	}
	if err := h.CheckConsistency(); err != nil {
		t.Fatalf("heap corrupted by double free: %v", err)
	}
	data := []byte("still works")
	if err := h.Write(p2, data); err != nil {
		t.Fatal(err)
	}
	if got, err := h.Read(p2, len(data)); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("live chunk after double free: %q, %v", got, err)
	}
	if err := h.Free(p2); err != nil {
		t.Fatal(err)
	}
}

// TestFreeOfUnownedPointerIsTypedAndHarmless: freeing a pointer the heap
// never handed out (or an interior pointer) returns ErrBadFree and leaves
// the chunk lists untouched.
func TestFreeOfUnownedPointerIsTypedAndHarmless(t *testing.T) {
	_, _, h := newHeap(t, 256, alloc.PolicyRetain)
	p, _ := h.Malloc(64)
	for _, bad := range []vm.VAddr{0xDEAD0000, p + 8, 0} {
		if err := h.Free(bad); !errors.Is(err, ErrBadFree) {
			t.Fatalf("Free(%#x) = %v, want ErrBadFree", bad, err)
		}
	}
	if err := h.CheckConsistency(); err != nil {
		t.Fatalf("heap corrupted by bad free: %v", err)
	}
	data := []byte("chunk intact")
	if err := h.Write(p, data); err != nil {
		t.Fatal(err)
	}
	if got, err := h.Read(p, len(data)); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("chunk after bad frees: %q, %v", got, err)
	}
}

// TestInjectedMallocFailureLeavesHeapUnchanged: an injected SiteMalloc
// fault surfaces as ErrNoMem and the arena state — chunk lists, live
// bytes, stats — is exactly the pre-call state.
func TestInjectedMallocFailureLeavesHeapUnchanged(t *testing.T) {
	k, err := kernel.New(kernel.Config{
		MemPages:      256,
		DeallocPolicy: alloc.PolicyRetain,
		FaultPlan: &fault.Plan{
			Seed:  1,
			Rules: map[fault.Site]fault.Rule{fault.SiteMalloc: {Nth: []uint64{2}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	pid, err := k.Spawn(0, "proc")
	if err != nil {
		t.Fatal(err)
	}
	h := New(k, pid)
	p, err := h.Malloc(64) // call 1: succeeds
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Write(p, []byte("before")); err != nil {
		t.Fatal(err)
	}
	statsBefore := h.Stats()
	liveBefore := h.LiveBytes()
	if _, err := h.Malloc(64); !errors.Is(err, ErrNoMem) {
		t.Fatalf("injected malloc = %v, want ErrNoMem", err)
	}
	if h.Stats() != statsBefore {
		t.Fatalf("stats changed by failed malloc: %+v -> %+v", statsBefore, h.Stats())
	}
	if h.LiveBytes() != liveBefore {
		t.Fatalf("live bytes changed by failed malloc: %d -> %d", liveBefore, h.LiveBytes())
	}
	if err := h.CheckConsistency(); err != nil {
		t.Fatalf("heap corrupted by failed malloc: %v", err)
	}
	if got, err := h.Read(p, 6); err != nil || !bytes.Equal(got, []byte("before")) {
		t.Fatalf("existing chunk after failed malloc: %q, %v", got, err)
	}
	if _, err := h.Malloc(64); err != nil {
		t.Fatalf("malloc after injected fault cleared = %v, want success", err)
	}
}

// TestOrganicMallocFailureLeavesHeapUnchanged: the same invariant when the
// failure is real — the kernel genuinely out of pages — rather than
// injected: ErrNoMem wraps alloc.ErrOutOfMemory and nothing moves.
func TestOrganicMallocFailureLeavesHeapUnchanged(t *testing.T) {
	_, _, h := newHeap(t, 16, alloc.PolicyRetain)
	p, err := h.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	statsBefore := h.Stats()
	liveBefore := h.LiveBytes()
	// 16-page machine: a 64-page large allocation cannot be satisfied.
	_, err = h.Malloc(64 * mem.PageSize)
	if !errors.Is(err, ErrNoMem) {
		t.Fatalf("exhausted malloc = %v, want ErrNoMem", err)
	}
	if h.Stats() != statsBefore || h.LiveBytes() != liveBefore {
		t.Fatal("failed large malloc must not change heap state")
	}
	if err := h.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
}
