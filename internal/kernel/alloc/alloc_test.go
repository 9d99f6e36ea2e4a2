package alloc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"memshield/internal/fault"
	"memshield/internal/mem"
)

func newAlloc(t *testing.T, pages int, p Policy) (*mem.Memory, *Allocator) {
	t.Helper()
	m, err := mem.New(pages)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	return m, a
}

func TestNewRejectsBadPolicy(t *testing.T) {
	m, _ := mem.New(8)
	if _, err := New(m, Policy(0)); err == nil {
		t.Fatal("want error for unknown policy")
	}
}

func TestBootCoversAllMemory(t *testing.T) {
	for _, pages := range []int{1, 2, 3, 7, 8, 1000, 1024, 1025} {
		_, a := newAlloc(t, pages, PolicyRetain)
		if got := a.FreePages(); got != pages {
			t.Errorf("pages=%d: FreePages=%d at boot", pages, got)
		}
		if err := a.CheckConsistency(); err != nil {
			t.Errorf("pages=%d: %v", pages, err)
		}
	}
}

func TestAllocFreeSinglePage(t *testing.T) {
	m, a := newAlloc(t, 64, PolicyRetain)
	pn, err := a.AllocPage(mem.OwnerUser)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Frame(pn)
	if f.State != mem.FrameAllocated || f.Owner != mem.OwnerUser || f.RefCount != 1 {
		t.Fatalf("frame after alloc: %+v", f)
	}
	if got := a.FreePages(); got != 63 {
		t.Fatalf("FreePages=%d, want 63", got)
	}
	if err := a.Free(pn); err != nil {
		t.Fatal(err)
	}
	if f.State != mem.FrameFree || f.Owner != mem.OwnerNone {
		t.Fatalf("frame after free: %+v", f)
	}
	if got := a.FreePages(); got != 64 {
		t.Fatalf("FreePages=%d, want 64", got)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocOrderSizes(t *testing.T) {
	m, a := newAlloc(t, 1024, PolicyRetain)
	pn, err := a.AllocPages(3, mem.OwnerKernel)
	if err != nil {
		t.Fatal(err)
	}
	for p := pn; p < pn+8; p++ {
		if m.Frame(p).State != mem.FrameAllocated {
			t.Fatalf("page %d of order-3 block not allocated", p)
		}
	}
	if got := a.FreePages(); got != 1024-8 {
		t.Fatalf("FreePages=%d, want %d", got, 1024-8)
	}
	order, err := a.BlockOrder(pn)
	if err != nil || order != 3 {
		t.Fatalf("BlockOrder = %d, %v; want 3, nil", order, err)
	}
	if _, err := a.BlockOrder(pn + 1); err == nil {
		t.Fatal("BlockOrder of non-head should error")
	}
	if err := a.Free(pn); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocBadOrder(t *testing.T) {
	_, a := newAlloc(t, 16, PolicyRetain)
	if _, err := a.AllocPages(-1, mem.OwnerUser); err == nil {
		t.Error("order -1: want error")
	}
	if _, err := a.AllocPages(MaxOrder+1, mem.OwnerUser); err == nil {
		t.Error("order too large: want error")
	}
}

func TestOutOfMemory(t *testing.T) {
	_, a := newAlloc(t, 4, PolicyRetain)
	for i := 0; i < 4; i++ {
		if _, err := a.AllocPage(mem.OwnerUser); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	_, err := a.AllocPage(mem.OwnerUser)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
}

func TestDoubleFree(t *testing.T) {
	_, a := newAlloc(t, 8, PolicyRetain)
	pn, err := a.AllocPage(mem.OwnerUser)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(pn); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(pn); err == nil {
		t.Fatal("double free: want error")
	}
	for _, bad := range []mem.PageNum{999, ^mem.PageNum(0)} {
		if err := a.Free(bad); err == nil {
			t.Fatalf("free of out-of-range page %d: want error", bad)
		}
		if _, err := a.BlockOrder(bad); err == nil {
			t.Fatalf("order of out-of-range page %d: want error", bad)
		}
	}
}

func TestRetainPolicyKeepsStaleData(t *testing.T) {
	m, a := newAlloc(t, 16, PolicyRetain)
	pn, err := a.AllocPage(mem.OwnerUser)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("TOP-SECRET-KEY-MATERIAL")
	if err := m.Write(pn.Base(), secret); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(pn); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(pn.Base(), len(secret))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("retain policy must leave stale data on free pages")
	}
}

func TestZeroOnFreeClearsData(t *testing.T) {
	m, a := newAlloc(t, 16, PolicyZeroOnFree)
	pn, err := a.AllocPages(2, mem.OwnerUser) // 4 pages
	if err != nil {
		t.Fatal(err)
	}
	for p := pn; p < pn+4; p++ {
		if err := m.Write(p.Base(), []byte("SECRET")); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Free(pn); err != nil {
		t.Fatal(err)
	}
	for p := pn; p < pn+4; p++ {
		if !m.PageIsZero(p) {
			t.Fatalf("page %d dirty after zero-on-free", p)
		}
	}
	if a.Stats().PagesZeroed != 4 {
		t.Fatalf("PagesZeroed = %d, want 4", a.Stats().PagesZeroed)
	}
}

func TestSecureDeallocDefersZeroing(t *testing.T) {
	m, a := newAlloc(t, 16, PolicySecureDealloc)
	pn, err := a.AllocPage(mem.OwnerUser)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("DEFERRED-SECRET")
	if err := m.Write(pn.Base(), secret); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(pn); err != nil {
		t.Fatal(err)
	}
	// Window: data still present until the next tick.
	got, _ := m.Read(pn.Base(), len(secret))
	if !bytes.Equal(got, secret) {
		t.Fatal("secure dealloc should leave data until Tick")
	}
	if a.PendingZero() != 1 {
		t.Fatalf("PendingZero = %d, want 1", a.PendingZero())
	}
	a.Tick()
	if !m.PageIsZero(pn) {
		t.Fatal("page dirty after Tick")
	}
	if a.PendingZero() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestSecureDeallocSkipsReallocatedPage(t *testing.T) {
	m, a := newAlloc(t, 1, PolicySecureDealloc)
	pn, err := a.AllocPage(mem.OwnerUser)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(pn); err != nil {
		t.Fatal(err)
	}
	// Reallocate the same (only) page and write new-owner data.
	pn2, err := a.AllocPage(mem.OwnerKernel)
	if err != nil {
		t.Fatal(err)
	}
	if pn2 != pn {
		t.Fatalf("expected LIFO reuse of page %d, got %d", pn, pn2)
	}
	if err := m.Write(pn2.Base(), []byte("NEW-OWNER-DATA")); err != nil {
		t.Fatal(err)
	}
	a.Tick()
	got, _ := m.Read(pn2.Base(), 14)
	if !bytes.Equal(got, []byte("NEW-OWNER-DATA")) {
		t.Fatal("Tick must not clobber reallocated pages")
	}
}

func TestSetPolicyDrainsDeferredQueue(t *testing.T) {
	m, a := newAlloc(t, 8, PolicySecureDealloc)
	pn, _ := a.AllocPage(mem.OwnerUser)
	if err := m.Write(pn.Base(), []byte("X")); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(pn); err != nil {
		t.Fatal(err)
	}
	if err := a.SetPolicy(PolicyRetain); err != nil {
		t.Fatal(err)
	}
	if !m.PageIsZero(pn) {
		t.Fatal("switching away from secure-dealloc must drain the queue")
	}
	if err := a.SetPolicy(Policy(42)); err == nil {
		t.Fatal("SetPolicy(bad): want error")
	}
}

func TestLIFOReuse(t *testing.T) {
	_, a := newAlloc(t, 64, PolicyRetain)
	p1, _ := a.AllocPage(mem.OwnerUser)
	p2, _ := a.AllocPage(mem.OwnerUser)
	if err := a.Free(p2); err != nil {
		t.Fatal(err)
	}
	p3, _ := a.AllocPage(mem.OwnerUser)
	if p3 != p2 {
		t.Fatalf("LIFO reuse: got %d, want %d", p3, p2)
	}
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p3); err != nil {
		t.Fatal(err)
	}
}

func TestBuddyMergeRestoresLargeBlocks(t *testing.T) {
	_, a := newAlloc(t, 1024, PolicyRetain)
	// Fragment completely, then free everything; a subsequent max-order
	// alloc must succeed, proving merges happened.
	var pages []mem.PageNum
	for {
		pn, err := a.AllocPage(mem.OwnerUser)
		if err != nil {
			break
		}
		pages = append(pages, pn)
	}
	if len(pages) != 1024 {
		t.Fatalf("allocated %d pages, want 1024", len(pages))
	}
	for _, pn := range pages {
		if err := a.Free(pn); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AllocPages(MaxOrder, mem.OwnerUser); err != nil {
		t.Fatalf("max-order alloc after full free: %v", err)
	}
	if a.Stats().Merges == 0 {
		t.Fatal("expected buddy merges to have occurred")
	}
}

func TestStatsCounters(t *testing.T) {
	_, a := newAlloc(t, 32, PolicyRetain)
	pn, _ := a.AllocPage(mem.OwnerUser)
	_ = a.Free(pn)
	s := a.Stats()
	if s.Allocs != 1 || s.Frees != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{
		PolicyRetain:        "retain",
		PolicyZeroOnFree:    "zero-on-free",
		PolicySecureDealloc: "secure-dealloc",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy should format")
	}
}

// Property: a random interleaving of allocs and frees never violates the
// allocator invariants, never double-covers a page, and (under zero-on-free)
// never leaves a dirty free page.
func TestQuickRandomWorkloadInvariants(t *testing.T) {
	for _, policy := range []Policy{PolicyRetain, PolicyZeroOnFree, PolicySecureDealloc} {
		policy := policy
		f := func(seed int64) bool {
			m, err := mem.New(512)
			if err != nil {
				return false
			}
			a, err := New(m, policy)
			if err != nil {
				return false
			}
			rng := rand.New(rand.NewSource(seed))
			var live []mem.PageNum
			for step := 0; step < 300; step++ {
				if rng.Intn(2) == 0 || len(live) == 0 {
					order := rng.Intn(4)
					pn, err := a.AllocPages(order, mem.OwnerUser)
					if err != nil {
						continue // OOM is fine
					}
					// Dirty the block so zero-on-free is actually tested.
					if err := m.Write(pn.Base(), []byte{0xDE, 0xAD}); err != nil {
						return false
					}
					live = append(live, pn)
				} else {
					i := rng.Intn(len(live))
					if err := a.Free(live[i]); err != nil {
						return false
					}
					live = append(live[:i], live[i+1:]...)
				}
				if rng.Intn(10) == 0 {
					a.Tick()
				}
			}
			a.Tick()
			return a.CheckConsistency() == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatalf("policy %v: %v", policy, err)
		}
	}
}

// Property: FreePages + allocated pages always equals total pages.
func TestQuickPageAccounting(t *testing.T) {
	f := func(seed int64) bool {
		m, _ := mem.New(256)
		a, _ := New(m, PolicyRetain)
		rng := rand.New(rand.NewSource(seed))
		allocated := 0
		var live []mem.PageNum
		orders := make(map[mem.PageNum]int)
		for step := 0; step < 200; step++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				order := rng.Intn(3)
				pn, err := a.AllocPages(order, mem.OwnerUser)
				if err != nil {
					continue
				}
				live = append(live, pn)
				orders[pn] = order
				allocated += 1 << order
			} else {
				i := rng.Intn(len(live))
				pn := live[i]
				if err := a.Free(pn); err != nil {
					return false
				}
				allocated -= 1 << orders[pn]
				delete(orders, pn)
				live = append(live[:i], live[i+1:]...)
			}
			if a.FreePages()+allocated != 256 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestInjectedAllocFailure: a SiteAllocPages fault surfaces as
// ErrOutOfMemory wrapping fault.ErrInjected and leaves the allocator
// untouched — no partial splits, no lost pages.
func TestInjectedAllocFailure(t *testing.T) {
	_, a := newAlloc(t, 64, PolicyRetain)
	a.SetInjector(fault.NewInjector(&fault.Plan{
		Seed:  1,
		Rules: map[fault.Site]fault.Rule{fault.SiteAllocPages: {Nth: []uint64{1}}},
	}))
	_, err := a.AllocPage(mem.OwnerUser)
	if !errors.Is(err, ErrOutOfMemory) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("injected alloc = %v, want ErrOutOfMemory wrapping fault.ErrInjected", err)
	}
	if a.FreePages() != 64 {
		t.Fatalf("FreePages after failed alloc = %d, want 64", a.FreePages())
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AllocPage(mem.OwnerUser); err != nil {
		t.Fatalf("alloc after injected fault cleared = %v, want success", err)
	}
}

// TestInjectedZeroOnFreeKeepsBlockAllocated: under PolicyZeroOnFree a
// failed page clear aborts the free BEFORE any bookkeeping changes — the
// block stays allocated and dirty (never free and dirty), and a later
// retry completes the free with the scrub.
func TestInjectedZeroOnFreeKeepsBlockAllocated(t *testing.T) {
	m, a := newAlloc(t, 64, PolicyZeroOnFree)
	a.SetInjector(fault.NewInjector(&fault.Plan{
		Seed:  1,
		Rules: map[fault.Site]fault.Rule{fault.SiteZeroOnFree: {Nth: []uint64{1}}},
	}))
	pn, err := a.AllocPage(mem.OwnerUser)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("dirty page contents")
	if err := m.Write(pn.Base(), secret); err != nil {
		t.Fatal(err)
	}
	ferr := a.Free(pn)
	if !errors.Is(ferr, fault.ErrInjected) {
		t.Fatalf("free under injected zero fault = %v, want fault.ErrInjected", ferr)
	}
	if _, err := a.BlockOrder(pn); err != nil {
		t.Fatalf("block must stay allocated after failed zero-on-free: %v", err)
	}
	if m.Frame(pn).State != mem.FrameAllocated {
		t.Fatalf("frame state = %v, want allocated", m.Frame(pn).State)
	}
	// CheckConsistency would reject a free-and-dirty page; an
	// allocated-and-dirty one is the legal fail-closed outcome.
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(pn); err != nil {
		t.Fatalf("retried free = %v, want success", err)
	}
	if !m.PageIsZero(pn) {
		t.Fatal("page must be zero after successful retry")
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestInjectedDeferredZeroRetriesOnNextTick: under PolicySecureDealloc a
// page whose deferred clear fails stays queued — the scrub is deferred
// further, never dropped — and the next Tick completes it.
func TestInjectedDeferredZeroRetriesOnNextTick(t *testing.T) {
	m, a := newAlloc(t, 64, PolicySecureDealloc)
	a.SetInjector(fault.NewInjector(&fault.Plan{
		Seed:  1,
		Rules: map[fault.Site]fault.Rule{fault.SiteZeroOnFree: {Nth: []uint64{1}}},
	}))
	pn, err := a.AllocPage(mem.OwnerUser)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Write(pn.Base(), []byte("secret")); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(pn); err != nil {
		t.Fatal(err)
	}
	if a.PendingZero() != 1 {
		t.Fatalf("PendingZero = %d, want 1", a.PendingZero())
	}
	a.Tick() // injected failure: page must stay queued
	if a.PendingZero() != 1 {
		t.Fatalf("PendingZero after faulted tick = %d, want 1 (retry queued)", a.PendingZero())
	}
	if m.PageIsZero(pn) {
		t.Fatal("page should still be dirty after faulted tick")
	}
	a.Tick() // call 2 not scheduled: scrub completes
	if a.PendingZero() != 0 {
		t.Fatalf("PendingZero after clean tick = %d, want 0", a.PendingZero())
	}
	if !m.PageIsZero(pn) {
		t.Fatal("page must be zero after retried tick")
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckConsistencyIsDeterministic: with several violations,
// CheckConsistency reports the lowest-numbered one on every call, so a
// storm that logs it replays byte-identically.
func TestCheckConsistencyIsDeterministic(t *testing.T) {
	m, a := newAlloc(t, 256, PolicyRetain)
	var heads []mem.PageNum
	for i := 0; i < 8; i++ {
		pn, err := a.AllocPage(mem.OwnerUser)
		if err != nil {
			t.Fatal(err)
		}
		heads = append(heads, pn)
	}
	lowest := heads[0]
	for _, pn := range heads {
		m.Frame(pn).State = mem.FrameFree // corrupt: allocated block, free frame
		if pn < lowest {
			lowest = pn
		}
	}
	want := fmt.Sprintf("page %d allocated but state %v", lowest, mem.FrameFree)
	for i := 0; i < 50; i++ {
		err := a.CheckConsistency()
		if err == nil || err.Error() != want {
			t.Fatalf("call %d: CheckConsistency = %v, want %q", i, err, want)
		}
	}
}

// CheckConsistency audits mem's zero marks against the bytes: a written
// page, allocated or freed under any policy, must not read as marked zero.
func TestCheckConsistencyAuditsZeroMarks(t *testing.T) {
	for _, p := range []Policy{PolicyRetain, PolicyZeroOnFree, PolicySecureDealloc} {
		m, a := newAlloc(t, 16, p)
		pn, err := a.AllocPage(mem.OwnerUser)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Write(pn.Base()+100, []byte("SECRET")); err != nil {
			t.Fatal(err)
		}
		if err := a.CheckConsistency(); err != nil {
			t.Fatalf("%v, written page: %v", p, err)
		}
		if err := a.Free(pn); err != nil {
			t.Fatal(err)
		}
		if err := a.CheckConsistency(); err != nil {
			t.Fatalf("%v, freed page: %v", p, err)
		}
	}
}
