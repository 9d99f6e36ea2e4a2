package vm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"memshield/internal/fault"
	"memshield/internal/kernel/alloc"
	"memshield/internal/mem"
)

func newVM(t *testing.T, pages, swapSlots int, policy alloc.Policy, encryptSwap bool) (*mem.Memory, *alloc.Allocator, *Manager) {
	t.Helper()
	m, err := mem.New(pages)
	if err != nil {
		t.Fatal(err)
	}
	a, err := alloc.New(m, policy)
	if err != nil {
		t.Fatal(err)
	}
	return m, a, NewManager(m, a, swapSlots, encryptSwap)
}

func TestAddrHelpers(t *testing.T) {
	a := VAddr(3*mem.PageSize + 5)
	if a.Page() != 3 || a.Offset() != 5 {
		t.Fatalf("Page/Offset = %d/%d", a.Page(), a.Offset())
	}
	if VPage(3).Base() != VAddr(3*mem.PageSize) {
		t.Fatal("VPage.Base wrong")
	}
}

func TestSpaceLifecycle(t *testing.T) {
	_, _, mg := newVM(t, 64, 0, alloc.PolicyRetain, false)
	if mg.HasSpace(1) {
		t.Fatal("space 1 should not exist")
	}
	s, err := mg.NewSpace(1)
	if err != nil {
		t.Fatal(err)
	}
	if s.PID() != 1 || !mg.HasSpace(1) {
		t.Fatal("space identity wrong")
	}
	if _, err := mg.NewSpace(1); !errors.Is(err, ErrSpaceExists) {
		t.Fatalf("duplicate NewSpace: %v", err)
	}
	if _, err := mg.Space(99); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("missing Space: %v", err)
	}
	if err := mg.DestroySpace(1); err != nil {
		t.Fatal(err)
	}
	if mg.HasSpace(1) {
		t.Fatal("space should be gone")
	}
	if err := mg.DestroySpace(1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("double destroy: %v", err)
	}
}

func TestMapReadWrite(t *testing.T) {
	_, a, mg := newVM(t, 64, 0, alloc.PolicyRetain, false)
	if _, err := mg.NewSpace(1); err != nil {
		t.Fatal(err)
	}
	va, err := mg.MapAnon(1, 3, "heap")
	if err != nil {
		t.Fatal(err)
	}
	// Anonymous memory is zero-filled.
	got, err := mg.Read(1, va, 3*mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("anon page byte %d = %#x, want 0", i, b)
		}
	}
	// Cross-page write round-trips.
	payload := bytes.Repeat([]byte{0xC3}, mem.PageSize+100)
	if err := mg.Write(1, va+mem.PageSize/2, payload); err != nil {
		t.Fatal(err)
	}
	got, err = mg.Read(1, va+mem.PageSize/2, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("cross-page round trip failed")
	}
	if a.FreePages() != 64-3 {
		t.Fatalf("FreePages = %d, want %d", a.FreePages(), 64-3)
	}
	// Unmapped access errors.
	if _, err := mg.Read(1, va+4*mem.PageSize, 1); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("read of unmapped: %v", err)
	}
	if err := mg.Write(1, va+4*mem.PageSize, []byte{1}); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("write of unmapped: %v", err)
	}
}

// TestReadAllocatesOnlyResult checks that Read copies each byte once,
// straight into the slice it returns: one allocation whether the read
// stays in one page or spans two. A per-page intermediate copy would be
// a host copy of the bytes (key parts, sealed plaintext) that no caller
// can scrub.
func TestReadAllocatesOnlyResult(t *testing.T) {
	_, _, mg := newVM(t, 64, 0, alloc.PolicyRetain, false)
	if _, err := mg.NewSpace(1); err != nil {
		t.Fatal(err)
	}
	va, err := mg.MapAnon(1, 2, "heap")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		addr VAddr
		n    int
	}{
		{"one page", va + 100, 64},
		{"two pages", va + mem.PageSize - 32, 64},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := mg.Read(1, tc.addr, tc.n); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("%s: Read made %v allocations, want 1", tc.name, allocs)
		}
	}
}

func TestMapAnonErrors(t *testing.T) {
	_, _, mg := newVM(t, 8, 0, alloc.PolicyRetain, false)
	if _, err := mg.MapAnon(9, 1, "x"); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("MapAnon no space: %v", err)
	}
	if _, err := mg.NewSpace(1); err != nil {
		t.Fatal(err)
	}
	if _, err := mg.MapAnon(1, 0, "x"); err == nil {
		t.Fatal("MapAnon(0 pages): want error")
	}
	if _, err := mg.MapAnon(1, 9999, "x"); err == nil {
		t.Fatal("MapAnon larger than RAM: want error")
	}
}

func TestUnmapReleasesFrames(t *testing.T) {
	_, a, mg := newVM(t, 32, 0, alloc.PolicyRetain, false)
	if _, err := mg.NewSpace(1); err != nil {
		t.Fatal(err)
	}
	va, err := mg.MapAnon(1, 4, "buf")
	if err != nil {
		t.Fatal(err)
	}
	before := a.FreePages()
	if err := mg.Unmap(1, va, 4); err != nil {
		t.Fatal(err)
	}
	if a.FreePages() != before+4 {
		t.Fatalf("FreePages = %d, want %d", a.FreePages(), before+4)
	}
	s, _ := mg.Space(1)
	if len(s.VMAs()) != 0 {
		t.Fatalf("VMAs after full unmap: %v", s.VMAs())
	}
	if err := mg.Unmap(1, va, 1); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("unmap of unmapped: %v", err)
	}
}

func TestPartialUnmapSplitsVMA(t *testing.T) {
	_, _, mg := newVM(t, 32, 0, alloc.PolicyRetain, false)
	if _, err := mg.NewSpace(1); err != nil {
		t.Fatal(err)
	}
	va, err := mg.MapAnon(1, 5, "region")
	if err != nil {
		t.Fatal(err)
	}
	// Punch a hole in the middle page.
	if err := mg.Unmap(1, va+2*mem.PageSize, 1); err != nil {
		t.Fatal(err)
	}
	s, _ := mg.Space(1)
	vmas := s.VMAs()
	if len(vmas) != 2 {
		t.Fatalf("VMAs = %d, want 2 after split", len(vmas))
	}
	if vmas[0].Pages() != 2 || vmas[1].Pages() != 2 {
		t.Fatalf("split sizes = %d,%d, want 2,2", vmas[0].Pages(), vmas[1].Pages())
	}
	// Hole is unmapped, edges still readable.
	if _, err := mg.Read(1, va+2*mem.PageSize, 1); !errors.Is(err, ErrBadAddress) {
		t.Fatal("hole should be unmapped")
	}
	if _, err := mg.Read(1, va, 1); err != nil {
		t.Fatal("left edge should be mapped")
	}
	if _, err := mg.Read(1, va+4*mem.PageSize, 1); err != nil {
		t.Fatal("right edge should be mapped")
	}
}

func TestForkSharesPhysicalFrames(t *testing.T) {
	m, a, mg := newVM(t, 64, 0, alloc.PolicyRetain, false)
	if _, err := mg.NewSpace(1); err != nil {
		t.Fatal(err)
	}
	va, err := mg.MapAnon(1, 2, "data")
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("shared-after-fork")
	if err := mg.Write(1, va, secret); err != nil {
		t.Fatal(err)
	}
	freeBefore := a.FreePages()
	if err := mg.Fork(1, 2); err != nil {
		t.Fatal(err)
	}
	// COW: no new frames consumed by fork itself.
	if a.FreePages() != freeBefore {
		t.Fatalf("fork consumed %d frames, want 0", freeBefore-a.FreePages())
	}
	// Same physical frame, both PIDs in reverse map.
	pf, err := mg.FrameOf(1, va)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := mg.FrameOf(2, va)
	if err != nil {
		t.Fatal(err)
	}
	if pf != cf {
		t.Fatalf("parent frame %d != child frame %d", pf, cf)
	}
	f := m.Frame(pf)
	if f.RefCount != 2 || !f.HasMapper(1) || !f.HasMapper(2) {
		t.Fatalf("frame meta after fork: ref=%d mappers=%v", f.RefCount, f.Mappers())
	}
	// Child reads parent's data.
	got, err := mg.Read(2, va, len(secret))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("child does not see parent data")
	}
}

func TestCOWBreakOnWrite(t *testing.T) {
	_, a, mg := newVM(t, 64, 0, alloc.PolicyRetain, false)
	if _, err := mg.NewSpace(1); err != nil {
		t.Fatal(err)
	}
	va, err := mg.MapAnon(1, 1, "data")
	if err != nil {
		t.Fatal(err)
	}
	if err := mg.Write(1, va, []byte("original")); err != nil {
		t.Fatal(err)
	}
	if err := mg.Fork(1, 2); err != nil {
		t.Fatal(err)
	}
	freeBefore := a.FreePages()
	// Child writes: gets a private copy; parent's view unchanged.
	if err := mg.Write(2, va, []byte("CHILDWRT")); err != nil {
		t.Fatal(err)
	}
	if a.FreePages() != freeBefore-1 {
		t.Fatalf("COW break should consume exactly 1 frame, consumed %d", freeBefore-a.FreePages())
	}
	pGot, _ := mg.Read(1, va, 8)
	cGot, _ := mg.Read(2, va, 8)
	if string(pGot) != "original" {
		t.Fatalf("parent sees %q after child write", pGot)
	}
	if string(cGot) != "CHILDWRT" {
		t.Fatalf("child sees %q", cGot)
	}
	pf, _ := mg.FrameOf(1, va)
	cf, _ := mg.FrameOf(2, va)
	if pf == cf {
		t.Fatal("frames should differ after COW break")
	}
	// Parent writing now (refcount back to 1) should NOT allocate.
	freeBefore = a.FreePages()
	if err := mg.Write(1, va, []byte("parent2!")); err != nil {
		t.Fatal(err)
	}
	if a.FreePages() != freeBefore {
		t.Fatal("sole-owner write must not allocate")
	}
}

func TestForkNoWriteKeepsSingleCopy(t *testing.T) {
	// The paper's key insight: a never-written key page stays single-copy
	// across arbitrarily many forks.
	m, _, mg := newVM(t, 256, 0, alloc.PolicyRetain, false)
	if _, err := mg.NewSpace(1); err != nil {
		t.Fatal(err)
	}
	va, err := mg.MapAnon(1, 1, "keypage")
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("RSA-PRIVATE-KEY-PATTERN-XYZ")
	if err := mg.Write(1, va, key); err != nil {
		t.Fatal(err)
	}
	for child := 2; child <= 17; child++ {
		if err := mg.Fork(1, child); err != nil {
			t.Fatalf("fork %d: %v", child, err)
		}
	}
	if got := len(m.FindAll(key)); got != 1 {
		t.Fatalf("key copies in physical memory = %d, want 1 after 16 forks", got)
	}
	pf, _ := mg.FrameOf(1, va)
	if m.Frame(pf).RefCount != 17 {
		t.Fatalf("refcount = %d, want 17", m.Frame(pf).RefCount)
	}
}

func TestForkErrors(t *testing.T) {
	_, _, mg := newVM(t, 16, 0, alloc.PolicyRetain, false)
	if err := mg.Fork(1, 2); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("fork of missing parent: %v", err)
	}
	if _, err := mg.NewSpace(1); err != nil {
		t.Fatal(err)
	}
	if _, err := mg.NewSpace(2); err != nil {
		t.Fatal(err)
	}
	if err := mg.Fork(1, 2); !errors.Is(err, ErrSpaceExists) {
		t.Fatalf("fork onto existing pid: %v", err)
	}
}

func TestDestroyLeavesStaleDataUnderRetain(t *testing.T) {
	m, _, mg := newVM(t, 32, 0, alloc.PolicyRetain, false)
	if _, err := mg.NewSpace(1); err != nil {
		t.Fatal(err)
	}
	va, _ := mg.MapAnon(1, 1, "secret")
	key := []byte("KEY-LEFT-BEHIND-AT-EXIT")
	if err := mg.Write(1, va, key); err != nil {
		t.Fatal(err)
	}
	pf, _ := mg.FrameOf(1, va)
	if err := mg.DestroySpace(1); err != nil {
		t.Fatal(err)
	}
	if m.Frame(pf).State != mem.FrameFree {
		t.Fatal("frame should be free after exit")
	}
	if len(m.FindAll(key)) != 1 {
		t.Fatal("retain policy: key should persist in unallocated memory after exit")
	}
}

func TestDestroyZeroesUnderZeroOnFree(t *testing.T) {
	m, _, mg := newVM(t, 32, 0, alloc.PolicyZeroOnFree, false)
	if _, err := mg.NewSpace(1); err != nil {
		t.Fatal(err)
	}
	va, _ := mg.MapAnon(1, 1, "secret")
	key := []byte("KEY-THAT-MUST-DIE")
	if err := mg.Write(1, va, key); err != nil {
		t.Fatal(err)
	}
	if err := mg.DestroySpace(1); err != nil {
		t.Fatal(err)
	}
	if len(m.FindAll(key)) != 0 {
		t.Fatal("zero-on-free: key must not survive process exit")
	}
}

func TestDestroyWithSharedFrames(t *testing.T) {
	m, _, mg := newVM(t, 32, 0, alloc.PolicyRetain, false)
	if _, err := mg.NewSpace(1); err != nil {
		t.Fatal(err)
	}
	va, _ := mg.MapAnon(1, 1, "d")
	if err := mg.Write(1, va, []byte("shared")); err != nil {
		t.Fatal(err)
	}
	if err := mg.Fork(1, 2); err != nil {
		t.Fatal(err)
	}
	pf, _ := mg.FrameOf(1, va)
	if err := mg.DestroySpace(1); err != nil {
		t.Fatal(err)
	}
	// Child still owns the frame.
	f := m.Frame(pf)
	if f.State != mem.FrameAllocated || f.RefCount != 1 || f.HasMapper(1) || !f.HasMapper(2) {
		t.Fatalf("frame after parent exit: state=%v ref=%d mappers=%v", f.State, f.RefCount, f.Mappers())
	}
	got, err := mg.Read(2, va, 6)
	if err != nil || string(got) != "shared" {
		t.Fatalf("child read after parent exit: %q, %v", got, err)
	}
}

func TestMlockBlocksSwap(t *testing.T) {
	_, _, mg := newVM(t, 32, 8, alloc.PolicyRetain, false)
	if _, err := mg.NewSpace(1); err != nil {
		t.Fatal(err)
	}
	va, _ := mg.MapAnon(1, 2, "key")
	if err := mg.Mlock(1, va, 2); err != nil {
		t.Fatal(err)
	}
	locked, err := mg.IsLocked(1, va)
	if err != nil || !locked {
		t.Fatalf("IsLocked = %v, %v", locked, err)
	}
	if err := mg.SwapOut(1, va); !errors.Is(err, ErrLockedPage) {
		t.Fatalf("swap of locked page: %v", err)
	}
	n, err := mg.SwapOutVictims(1, 10)
	if err != nil || n != 0 {
		t.Fatalf("SwapOutVictims over locked pages = %d, %v; want 0", n, err)
	}
}

func TestMlockErrors(t *testing.T) {
	_, _, mg := newVM(t, 16, 0, alloc.PolicyRetain, false)
	if err := mg.Mlock(7, 0x1000, 1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("mlock no space: %v", err)
	}
	if _, err := mg.NewSpace(1); err != nil {
		t.Fatal(err)
	}
	if err := mg.Mlock(1, 0x1000, 1); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("mlock unmapped: %v", err)
	}
	if _, err := mg.IsLocked(1, 0x1000); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("IsLocked unmapped: %v", err)
	}
}

func TestSwapOutLeavesStaleFrame(t *testing.T) {
	m, _, mg := newVM(t, 32, 4, alloc.PolicyRetain, false)
	if _, err := mg.NewSpace(1); err != nil {
		t.Fatal(err)
	}
	va, _ := mg.MapAnon(1, 1, "data")
	key := []byte("SWAPPED-OUT-SECRET-123")
	if err := mg.Write(1, va, key); err != nil {
		t.Fatal(err)
	}
	pf, _ := mg.FrameOf(1, va)
	if err := mg.SwapOut(1, va); err != nil {
		t.Fatal(err)
	}
	// Frame is free but (retain policy) still holds the key: the paper's
	// point about swapping creating unallocated-memory copies.
	if m.Frame(pf).State != mem.FrameFree {
		t.Fatal("frame should be free after swap-out")
	}
	if len(m.FindAll(key)) != 1 {
		t.Fatal("stale key should remain in unallocated memory after swap-out")
	}
	if mg.Swap().UsedSlots() != 1 {
		t.Fatalf("UsedSlots = %d, want 1", mg.Swap().UsedSlots())
	}
	// Access faults it back in.
	got, err := mg.Read(1, va, len(key))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, key) {
		t.Fatal("swap-in returned wrong data")
	}
	if mg.Swap().UsedSlots() != 0 {
		t.Fatal("slot should be released after swap-in")
	}
}

func TestSwapDeviceDisclosure(t *testing.T) {
	// Unencrypted swap: the raw device contains the plaintext key.
	_, _, mgPlain := newVM(t, 32, 4, alloc.PolicyRetain, false)
	if _, err := mgPlain.NewSpace(1); err != nil {
		t.Fatal(err)
	}
	va, _ := mgPlain.MapAnon(1, 1, "d")
	key := []byte("PLAINTEXT-KEY-ON-SWAP-DEVICE")
	if err := mgPlain.Write(1, va, key); err != nil {
		t.Fatal(err)
	}
	if err := mgPlain.SwapOut(1, va); err != nil {
		t.Fatal(err)
	}
	if len(mgPlain.Swap().FindPattern(key)) == 0 {
		t.Fatal("plaintext swap should expose the key")
	}
	// Encrypted swap: pattern absent, but data round-trips.
	_, _, mgEnc := newVM(t, 32, 4, alloc.PolicyRetain, true)
	if _, err := mgEnc.NewSpace(1); err != nil {
		t.Fatal(err)
	}
	va2, _ := mgEnc.MapAnon(1, 1, "d")
	if err := mgEnc.Write(1, va2, key); err != nil {
		t.Fatal(err)
	}
	if err := mgEnc.SwapOut(1, va2); err != nil {
		t.Fatal(err)
	}
	if !mgEnc.Swap().Encrypted() {
		t.Fatal("swap should report encrypted")
	}
	if len(mgEnc.Swap().FindPattern(key)) != 0 {
		t.Fatal("encrypted swap must not expose the key pattern")
	}
	got, err := mgEnc.Read(1, va2, len(key))
	if err != nil || !bytes.Equal(got, key) {
		t.Fatalf("encrypted swap round trip: %q, %v", got, err)
	}
}

func TestSwapAreaFullAndErrors(t *testing.T) {
	sa := NewSwapArea(1, false)
	if sa.Slots() != 1 {
		t.Fatal("Slots wrong")
	}
	if _, err := sa.Store(make([]byte, 7)); err == nil {
		t.Fatal("short store: want error")
	}
	page := make([]byte, mem.PageSize)
	slot, err := sa.Store(page)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sa.Store(page); !errors.Is(err, ErrNoSwapSpace) {
		t.Fatalf("full swap: %v", err)
	}
	if _, err := sa.Load(99); err == nil {
		t.Fatal("load of bad slot: want error")
	}
	sa.Release(slot)
	sa.Release(99) // no-op
	if _, err := sa.Load(slot); err == nil {
		t.Fatal("load of released slot: want error")
	}
	neg := NewSwapArea(-5, false)
	if neg.Slots() != 0 {
		t.Fatal("negative slots should clamp to 0")
	}
}

func TestSwapSharedPageRefused(t *testing.T) {
	_, _, mg := newVM(t, 32, 4, alloc.PolicyRetain, false)
	if _, err := mg.NewSpace(1); err != nil {
		t.Fatal(err)
	}
	va, _ := mg.MapAnon(1, 1, "d")
	if err := mg.Fork(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := mg.SwapOut(1, va); !errors.Is(err, ErrNotSwappable) {
		t.Fatalf("swap of COW-shared page: %v", err)
	}
}

func TestForkFaultsInSwappedPages(t *testing.T) {
	_, _, mg := newVM(t, 32, 4, alloc.PolicyRetain, false)
	if _, err := mg.NewSpace(1); err != nil {
		t.Fatal(err)
	}
	va, _ := mg.MapAnon(1, 1, "d")
	if err := mg.Write(1, va, []byte("before-swap")); err != nil {
		t.Fatal(err)
	}
	if err := mg.SwapOut(1, va); err != nil {
		t.Fatal(err)
	}
	if err := mg.Fork(1, 2); err != nil {
		t.Fatal(err)
	}
	got, err := mg.Read(2, va, 11)
	if err != nil || string(got) != "before-swap" {
		t.Fatalf("child read of pre-fork-swapped page: %q, %v", got, err)
	}
}

// Property: after fork, the child reads byte-identical memory; after the
// child writes a random range, the parent still reads the original bytes.
func TestQuickForkIsolation(t *testing.T) {
	f := func(seed int64) bool {
		m, err := mem.New(128)
		if err != nil {
			return false
		}
		a, err := alloc.New(m, alloc.PolicyRetain)
		if err != nil {
			return false
		}
		mg := NewManager(m, a, 0, false)
		if _, err := mg.NewSpace(1); err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		npages := 1 + rng.Intn(4)
		va, err := mg.MapAnon(1, npages, "d")
		if err != nil {
			return false
		}
		original := make([]byte, npages*mem.PageSize)
		rng.Read(original)
		if err := mg.Write(1, va, original); err != nil {
			return false
		}
		if err := mg.Fork(1, 2); err != nil {
			return false
		}
		childView, err := mg.Read(2, va, len(original))
		if err != nil || !bytes.Equal(childView, original) {
			return false
		}
		// Child scribbles somewhere random.
		off := rng.Intn(len(original) - 1)
		n := 1 + rng.Intn(len(original)-off)
		scribble := make([]byte, n)
		rng.Read(scribble)
		if err := mg.Write(2, va+VAddr(off), scribble); err != nil {
			return false
		}
		parentView, err := mg.Read(1, va, len(original))
		if err != nil {
			return false
		}
		return bytes.Equal(parentView, original)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: swap-out followed by swap-in round-trips arbitrary page
// contents, with and without swap encryption.
func TestQuickSwapRoundTrip(t *testing.T) {
	for _, encrypt := range []bool{false, true} {
		encrypt := encrypt
		f := func(seed int64) bool {
			m, _ := mem.New(64)
			a, _ := alloc.New(m, alloc.PolicyRetain)
			mg := NewManager(m, a, 8, encrypt)
			if _, err := mg.NewSpace(1); err != nil {
				return false
			}
			va, err := mg.MapAnon(1, 1, "d")
			if err != nil {
				return false
			}
			rng := rand.New(rand.NewSource(seed))
			data := make([]byte, mem.PageSize)
			rng.Read(data)
			if err := mg.Write(1, va, data); err != nil {
				return false
			}
			if err := mg.SwapOut(1, va); err != nil {
				return false
			}
			got, err := mg.Read(1, va, mem.PageSize)
			return err == nil && bytes.Equal(got, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatalf("encrypt=%v: %v", encrypt, err)
		}
	}
}

// Property: a random fork tree with interleaved writes behaves exactly like
// independent shadow copies — every process always reads precisely what the
// shadow model says it should, no matter how COW sharing and breaking
// interleave across generations.
func TestQuickForkTreeShadowModel(t *testing.T) {
	f := func(seed int64) bool {
		m, err := mem.New(2048)
		if err != nil {
			return false
		}
		a, err := alloc.New(m, alloc.PolicyRetain)
		if err != nil {
			return false
		}
		mg := NewManager(m, a, 0, false)
		rng := rand.New(rand.NewSource(seed))

		const regionPages = 2
		const regionBytes = regionPages * mem.PageSize
		if _, err := mg.NewSpace(1); err != nil {
			return false
		}
		va, err := mg.MapAnon(1, regionPages, "shared")
		if err != nil {
			return false
		}
		initial := make([]byte, regionBytes)
		rng.Read(initial)
		if err := mg.Write(1, va, initial); err != nil {
			return false
		}
		shadow := map[int][]byte{1: append([]byte(nil), initial...)}
		pids := []int{1}
		nextPID := 2

		for step := 0; step < 120; step++ {
			switch rng.Intn(3) {
			case 0: // fork a random process
				if len(pids) >= 12 {
					continue
				}
				parent := pids[rng.Intn(len(pids))]
				if err := mg.Fork(parent, nextPID); err != nil {
					return false
				}
				shadow[nextPID] = append([]byte(nil), shadow[parent]...)
				pids = append(pids, nextPID)
				nextPID++
			case 1: // random write in a random process
				pid := pids[rng.Intn(len(pids))]
				off := rng.Intn(regionBytes - 1)
				n := 1 + rng.Intn(minInt(regionBytes-off, 300))
				data := make([]byte, n)
				rng.Read(data)
				if err := mg.Write(pid, va+VAddr(off), data); err != nil {
					return false
				}
				copy(shadow[pid][off:], data)
			case 2: // verify a random process against the shadow
				pid := pids[rng.Intn(len(pids))]
				got, err := mg.Read(pid, va, regionBytes)
				if err != nil || !bytes.Equal(got, shadow[pid]) {
					return false
				}
			}
		}
		// Final global verification.
		for _, pid := range pids {
			got, err := mg.Read(pid, va, regionBytes)
			if err != nil || !bytes.Equal(got, shadow[pid]) {
				return false
			}
		}
		return a.CheckConsistency() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestSwapFullMidEvictionLeavesPageMapped is the swap-full regression test:
// when SwapOut hits ErrNoSwapSpace (device full), the victim page must
// remain mapped, present and intact — no partially-swapped state, nothing
// released, structural invariants unbroken.
func TestSwapFullMidEvictionLeavesPageMapped(t *testing.T) {
	_, a, mg := newVM(t, 32, 1, alloc.PolicyRetain, false)
	if _, err := mg.NewSpace(1); err != nil {
		t.Fatal(err)
	}
	vaFill, _ := mg.MapAnon(1, 1, "filler")
	va, _ := mg.MapAnon(1, 1, "victim")
	payload := []byte("victim page payload")
	if err := mg.Write(1, va, payload); err != nil {
		t.Fatal(err)
	}
	// Occupy the single swap slot, then hit the full device.
	if err := mg.SwapOut(1, vaFill); err != nil {
		t.Fatal(err)
	}
	if err := mg.SwapOut(1, va); !errors.Is(err, ErrNoSwapSpace) {
		t.Fatalf("swap-out on full device = %v, want ErrNoSwapSpace", err)
	}
	got, err := mg.Read(1, va, len(payload))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("victim after failed swap-out: %q, %v; want intact mapping", got, err)
	}
	if pn, err := mg.FrameOf(1, va); err != nil || pn == 0 {
		t.Fatalf("victim frame after failed swap-out: %d, %v; want still present", pn, err)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := mg.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// The failure must not have leaked the slot either: faulting the
	// filler back in frees the one slot and the victim can now swap.
	if _, err := mg.Read(1, vaFill, 1); err != nil {
		t.Fatal(err)
	}
	if err := mg.SwapOut(1, va); err != nil {
		t.Fatalf("swap-out after space freed = %v, want success", err)
	}
}

// TestInjectedSwapStoreErrorLeavesPageMapped covers the injected analogue:
// a SiteSwapStore I/O error mid-eviction leaves the victim mapped and
// intact, and consumes no swap slot.
func TestInjectedSwapStoreErrorLeavesPageMapped(t *testing.T) {
	_, a, mg := newVM(t, 32, 4, alloc.PolicyRetain, false)
	mg.SetInjector(fault.NewInjector(&fault.Plan{
		Seed:  1,
		Rules: map[fault.Site]fault.Rule{fault.SiteSwapStore: {Nth: []uint64{1}}},
	}))
	if _, err := mg.NewSpace(1); err != nil {
		t.Fatal(err)
	}
	va, _ := mg.MapAnon(1, 1, "victim")
	payload := []byte("survives injected store error")
	if err := mg.Write(1, va, payload); err != nil {
		t.Fatal(err)
	}
	err := mg.SwapOut(1, va)
	if !errors.Is(err, ErrSwapIO) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("injected store error = %v, want ErrSwapIO wrapping fault.ErrInjected", err)
	}
	if mg.Swap().UsedSlots() != 0 {
		t.Fatalf("used slots after failed store = %d, want 0", mg.Swap().UsedSlots())
	}
	got, rerr := mg.Read(1, va, len(payload))
	if rerr != nil || !bytes.Equal(got, payload) {
		t.Fatalf("victim after injected store error: %q, %v; want intact mapping", got, rerr)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := mg.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Call 2 is not scheduled to fail: the same page swaps out cleanly.
	if err := mg.SwapOut(1, va); err != nil {
		t.Fatalf("swap-out after injected fault cleared = %v, want success", err)
	}
}

// TestInjectedMlockDenial pins the Mlock fault site: the denial arrives
// before any page is pinned, and a later un-faulted call succeeds.
func TestInjectedMlockDenial(t *testing.T) {
	_, _, mg := newVM(t, 32, 4, alloc.PolicyRetain, false)
	mg.SetInjector(fault.NewInjector(&fault.Plan{
		Seed:  1,
		Rules: map[fault.Site]fault.Rule{fault.SiteMlock: {Nth: []uint64{1}}},
	}))
	if _, err := mg.NewSpace(1); err != nil {
		t.Fatal(err)
	}
	va, _ := mg.MapAnon(1, 1, "key")
	err := mg.Mlock(1, va, 1)
	if !errors.Is(err, ErrMlockDenied) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("injected mlock = %v, want ErrMlockDenied wrapping fault.ErrInjected", err)
	}
	if locked, err := mg.IsLocked(1, va); err != nil || locked {
		t.Fatalf("page locked after denied mlock: %v, %v", locked, err)
	}
	if err := mg.Mlock(1, va, 1); err != nil {
		t.Fatalf("second mlock = %v, want success", err)
	}
	if locked, _ := mg.IsLocked(1, va); !locked {
		t.Fatal("page must be locked after granted mlock")
	}
}

// TestSwapOutVictimsStopsOnFullDevice: once the scan hits ErrNoSwapSpace
// every later victim would fail identically, so the sweep stops early with
// the pages it managed, all remaining mappings intact.
func TestSwapOutVictimsStopsOnFullDevice(t *testing.T) {
	_, a, mg := newVM(t, 64, 2, alloc.PolicyRetain, false)
	if _, err := mg.NewSpace(1); err != nil {
		t.Fatal(err)
	}
	if _, err := mg.MapAnon(1, 6, "heap"); err != nil {
		t.Fatal(err)
	}
	n, err := mg.SwapOutVictims(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("victims swapped = %d, want 2 (device capacity)", n)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := mg.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckConsistencyIsDeterministic: with violations in several spaces,
// CheckConsistency reports the lowest PID's lowest page on every call, so
// a storm that logs it replays byte-identically.
func TestCheckConsistencyIsDeterministic(t *testing.T) {
	m, _, mg := newVM(t, 64, 0, alloc.PolicyRetain, false)
	var want string
	for _, pid := range []int{4, 2, 3, 1} {
		if _, err := mg.NewSpace(pid); err != nil {
			t.Fatal(err)
		}
		va, err := mg.MapAnon(pid, 2, "buf")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			pn, err := mg.FrameOf(pid, va+VAddr(i*mem.PageSize))
			if err != nil {
				t.Fatal(err)
			}
			m.Frame(pn).RemoveMapper(pid) // corrupt: PTE whose frame forgot it
			if pid == 1 && i == 0 {
				want = fmt.Sprintf("vm: frame %d does not list mapper %d", pn, pid)
			}
		}
	}
	for i := 0; i < 50; i++ {
		err := mg.CheckConsistency()
		if err == nil || err.Error() != want {
			t.Fatalf("call %d: CheckConsistency = %v, want %q", i, err, want)
		}
	}
}

// TestFailedUnmapLeavesHoles: an Unmap whose third release fails its
// zero-on-free scrub stops there. The two pages already released read as
// unmapped, the rest still read their bytes, and the space stays
// consistent; a fork of it and the teardown of both spaces return every
// frame.
func TestFailedUnmapLeavesHoles(t *testing.T) {
	_, a, mg := newVM(t, 64, 0, alloc.PolicyZeroOnFree, false)
	a.SetInjector(fault.NewInjector(&fault.Plan{
		Seed:  1,
		Rules: map[fault.Site]fault.Rule{fault.SiteZeroOnFree: {Nth: []uint64{3}}},
	}))
	start := a.FreePages()
	if _, err := mg.NewSpace(1); err != nil {
		t.Fatal(err)
	}
	va, err := mg.MapAnon(1, 4, "buf")
	if err != nil {
		t.Fatal(err)
	}
	page := func(i int) VAddr { return va + VAddr(i*mem.PageSize) }
	for i := 0; i < 4; i++ {
		if err := mg.Write(1, page(i), []byte{byte(0xa0 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := mg.Unmap(1, va, 4); !errors.Is(err, alloc.ErrZeroOnFree) {
		t.Fatalf("Unmap = %v, want alloc.ErrZeroOnFree", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := mg.Read(1, page(i), 1); !errors.Is(err, ErrBadAddress) {
			t.Fatalf("read of released page %d = %v, want ErrBadAddress", i, err)
		}
	}
	for i := 2; i < 4; i++ {
		got, err := mg.Read(1, page(i), 1)
		if err != nil || got[0] != byte(0xa0+i) {
			t.Fatalf("read of page %d = %v, %v; want [%#x]", i, got, err, 0xa0+i)
		}
	}
	if err := mg.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := mg.Fork(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := mg.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for _, pid := range []int{1, 2} {
		if err := mg.DestroySpace(pid); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.FreePages(); got != start {
		t.Fatalf("FreePages after teardown = %d, want %d", got, start)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
