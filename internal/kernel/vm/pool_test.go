package vm

import (
	"bytes"
	"sort"
	"testing"

	"memshield/internal/kernel/alloc"
	"memshield/internal/mem"
)

// liveTables counts the whole page tables of every space by page count;
// pieces of split areas share a table and are not counted.
func liveTables(mg *Manager) map[int]int {
	n := make(map[int]int)
	for _, s := range mg.spaces {
		for _, v := range s.vmas {
			if !v.piece {
				n[len(v.ptes)]++
			}
		}
	}
	return n
}

// checkPool checks that every pooled table and record is cleared and that
// no live area's entries lie in a pooled table.
func checkPool(t *testing.T, mg *Manager) {
	t.Helper()
	live := make(map[*pte]bool)
	for _, s := range mg.spaces {
		for _, v := range s.vmas {
			for i := range v.ptes {
				live[&v.ptes[i]] = true
			}
		}
	}
	for n, free := range mg.pool {
		for _, v := range free {
			if len(v.ptes) != n || v.Start != 0 || v.End != 0 || v.Name != "" || v.piece {
				t.Fatalf("pooled record %+v under size %d", *v, n)
			}
			for i := range v.ptes {
				if v.ptes[i] != (pte{}) {
					t.Fatalf("pooled table of %d pages holds entry %d = %+v", n, i, v.ptes[i])
				}
				if live[&v.ptes[i]] {
					t.Fatalf("pooled table of %d pages is still mapped", n)
				}
			}
		}
	}
}

// After one warm-up cycle, mapping 16 fresh pages and unmapping the whole
// area makes no Go allocation: the area takes the table and record the
// last Unmap returned.
func TestMapUnmapZeroAllocs(t *testing.T) {
	_, _, mg := newVM(t, 64, 0, alloc.PolicyZeroOnFree, false)
	if _, err := mg.NewSpace(1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		va, err := mg.MapAnon(1, 16, "heap-arena")
		if err != nil {
			t.Fatal(err)
		}
		if err := mg.Unmap(1, va, 16); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("MapAnon+Unmap of 16 pages = %v allocations, want 0", allocs)
	}
	if got := len(mg.pool[16]); got != 1 {
		t.Fatalf("pooled 16-page tables = %d, want 1", got)
	}
}

// forkParent builds a parent with several areas: a key page, a 16-page
// heap arena, a 4-page stack and the two pieces of a split 6-page area.
func forkParent(t *testing.T, mg *Manager, pid int) {
	t.Helper()
	if _, err := mg.NewSpace(pid); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 16, 4} {
		if _, err := mg.MapAnon(pid, n, "area"); err != nil {
			t.Fatal(err)
		}
	}
	va, err := mg.MapAnon(pid, 6, "split")
	if err != nil {
		t.Fatal(err)
	}
	if err := mg.Unmap(pid, va+2*mem.PageSize, 1); err != nil {
		t.Fatal(err)
	}
}

// A fork and exit of a space with several areas makes at most two Go
// allocations, the child's space record and its area list: every page
// table comes from the pool, including one per piece of a split area.
func TestForkExitAllocs(t *testing.T) {
	_, _, mg := newVM(t, 128, 0, alloc.PolicyZeroOnFree, false)
	forkParent(t, mg, 1)
	allocs := testing.AllocsPerRun(100, func() {
		if err := mg.Fork(1, 2); err != nil {
			t.Fatal(err)
		}
		if err := mg.DestroySpace(2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Fork+DestroySpace = %v allocations, want at most 2", allocs)
	}
}

// Every size a fork returns to the pool is one the next fork draws, so
// 1,000 fork-and-exit cycles, each child also mapping and keeping a
// session arena, leave no more pooled tables of any size than were live
// at the peak. A pool that only gained would hold 1,000 of each.
func TestForkExitPoolBounded(t *testing.T) {
	_, _, mg := newVM(t, 256, 0, alloc.PolicyZeroOnFree, false)
	forkParent(t, mg, 1)
	peak := make(map[int]int)
	for i := 0; i < 1000; i++ {
		if err := mg.Fork(1, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := mg.MapAnon(2, 16, "session"); err != nil {
			t.Fatal(err)
		}
		for n, c := range liveTables(mg) {
			peak[n] = max(peak[n], c)
		}
		if err := mg.DestroySpace(2); err != nil {
			t.Fatal(err)
		}
	}
	for n, free := range mg.pool {
		if len(free) > peak[n] {
			t.Errorf("%d pooled tables of %d pages, but at most %d were live", len(free), n, peak[n])
		}
	}
	if len(mg.pool[16]) != 2 {
		t.Errorf("pooled 16-page tables = %d, want 2 (the child's arena copy and its session)", len(mg.pool[16]))
	}
	checkPool(t, mg)
}

// A partial unmap leaves pieces that share their area's table, and the
// pieces go to the collector: were they pooled, mapping 16 pages,
// trimming one and unmapping the rest would pool a 15-entry table that
// no 16-page mapping ever draws, once per cycle.
func TestSplitPiecesNotPooled(t *testing.T) {
	_, _, mg := newVM(t, 64, 0, alloc.PolicyZeroOnFree, false)
	if _, err := mg.NewSpace(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		va, err := mg.MapAnon(1, 16, "arena")
		if err != nil {
			t.Fatal(err)
		}
		if err := mg.Unmap(1, va, 1); err != nil {
			t.Fatal(err)
		}
		if err := mg.Unmap(1, va+mem.PageSize, 15); err != nil {
			t.Fatal(err)
		}
	}
	for n, free := range mg.pool {
		if len(free) != 0 {
			t.Errorf("%d pooled tables of %d pages, want none", len(free), n)
		}
	}
}

// The pooled tables of a destroyed space are not visible through it: a
// holder of the space sees no areas, and VMAs hands out copies.
func TestDestroyedSpaceHoldsNoTables(t *testing.T) {
	_, _, mg := newVM(t, 64, 0, alloc.PolicyRetain, false)
	if _, err := mg.NewSpace(1); err != nil {
		t.Fatal(err)
	}
	if _, err := mg.MapAnon(1, 3, "heap"); err != nil {
		t.Fatal(err)
	}
	s, _ := mg.Space(1)
	before := s.VMAs()
	if err := mg.DestroySpace(1); err != nil {
		t.Fatal(err)
	}
	if len(s.vmas) != 0 || len(s.VMAs()) != 0 {
		t.Fatalf("destroyed space still lists %d areas", len(s.vmas))
	}
	if _, err := mg.NewSpace(2); err != nil {
		t.Fatal(err)
	}
	if _, err := mg.MapAnon(2, 3, "other"); err != nil {
		t.Fatal(err)
	}
	if before[0].Name != "heap" || before[0].Pages() != 3 {
		t.Fatalf("an earlier VMAs copy changed to %+v", before[0])
	}
}

// recycleOps are FuzzVMRecycle's steps; each takes three input bytes, the
// op and two arguments.
const (
	opNewSpace = iota
	opMapAnon
	opUnmapWhole
	opUnmapPart
	opFork
	opWrite
	opSwapOut
	opMlock
	opDestroy
	numOps
)

// FuzzVMRecycle runs a sequence of address-space operations and checks,
// after every step, that the manager is consistent, that a fresh mapping
// of a pooled size reads all zero, and that every pooled table is cleared
// and unmapped. At the end every space is destroyed and every frame is
// free again.
func FuzzVMRecycle(f *testing.F) {
	// Split a 5-page area, write both pieces, destroy the space, then map
	// the same sizes again.
	f.Add([]byte{
		0, opNewSpace, 0, 0, opMapAnon, 0, 4, opUnmapPart, 0, 2,
		opWrite, 0, 0, opWrite, 0, 1, opDestroy, 0, 0,
		opNewSpace, 0, 0, opMapAnon, 0, 4, opMapAnon, 0, 1,
	})
	// Unmap the edge of an area, fork, break COW in the child, swap the
	// parent's copy of that page out, fork again (which swaps it back
	// in), then tear everything down.
	f.Add([]byte{
		1, opNewSpace, 0, 0, opMapAnon, 0, 3, opMapAnon, 0, 1,
		opUnmapPart, 0, 0, opFork, 0, 0, opWrite, 1, 0,
		opSwapOut, 0, 0, opMlock, 0, 2, opFork, 0, 0,
		opDestroy, 1, 0, opDestroy, 0, 0,
	})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		policy := alloc.PolicyRetain
		if in[0]&1 == 1 {
			policy = alloc.PolicyZeroOnFree
		}
		_, a, mg := newVM(t, 64, 8, policy, false)
		const probe = 1 << 20
		if _, err := mg.NewSpace(probe); err != nil {
			t.Fatal(err)
		}
		free := a.FreePages()
		nextPID := 1
		var pids []int // live spaces other than the probe, ascending
		for step, in := 0, in[1:]; len(in) >= 3 && step < 200; step, in = step+1, in[3:] {
			op, x, y := int(in[0])%numOps, int(in[1]), int(in[2])
			if op == opNewSpace || len(pids) == 0 {
				if len(pids) < 6 {
					if _, err := mg.NewSpace(nextPID); err != nil {
						t.Fatal(err)
					}
					pids = append(pids, nextPID)
					nextPID++
				}
			} else {
				pid := pids[x%len(pids)]
				vmas := mg.spaces[pid].vmas
				var v *VMA
				if len(vmas) > 0 {
					v = vmas[y%len(vmas)]
				}
				page := func() VAddr { return v.Start + VAddr(y/len(vmas)%v.Pages()*mem.PageSize) }
				switch {
				case op == opMapAnon:
					_, _ = mg.MapAnon(pid, 1+y%6, "area")
				case op == opFork && len(pids) < 6:
					if err := mg.Fork(pid, nextPID); err == nil {
						pids = append(pids, nextPID)
					}
					nextPID++
				case op == opDestroy:
					if err := mg.DestroySpace(pid); err != nil {
						t.Fatal(err)
					}
					pids = append(pids[:x%len(pids)], pids[x%len(pids)+1:]...)
				case v == nil:
				case op == opUnmapWhole:
					if err := mg.Unmap(pid, v.Start, v.Pages()); err != nil && !v.piece {
						t.Fatalf("unmap of a whole area: %v", err)
					}
				case op == opUnmapPart:
					_ = mg.Unmap(pid, page(), 1)
				case op == opWrite:
					_ = mg.Write(pid, page(), []byte{byte(1 + step)})
				case op == opSwapOut:
					_ = mg.SwapOut(pid, page())
				case op == opMlock:
					_ = mg.Mlock(pid, page(), 1)
				}
			}
			if err := mg.CheckConsistency(); err != nil {
				t.Fatalf("step %d (op %d): %v", step, op, err)
			}
			checkPool(t, mg)
			probeFresh(t, mg, probe)
		}
		for _, pid := range pids {
			if err := mg.DestroySpace(pid); err != nil {
				t.Fatal(err)
			}
		}
		if got := a.FreePages(); got != free {
			t.Fatalf("free pages after teardown = %d, want %d", got, free)
		}
		checkPool(t, mg)
	})
}

// probeFresh maps, in the probe space, an area of the smallest pooled size
// (one page when the pool is empty), checks that it reads all zero and
// unmaps it. A mapping may fail for want of frames.
func probeFresh(t *testing.T, mg *Manager, probe int) {
	t.Helper()
	sizes := make([]int, 0, len(mg.pool))
	for n, free := range mg.pool {
		if len(free) > 0 {
			sizes = append(sizes, n)
		}
	}
	sort.Ints(sizes)
	n := 1
	if len(sizes) > 0 {
		n = sizes[0]
	}
	va, err := mg.MapAnon(probe, n, "probe")
	if err != nil {
		return
	}
	got, err := mg.Read(probe, va, n*mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatalf("a fresh %d-page mapping does not read zero", n)
	}
	if err := mg.Unmap(probe, va, n); err != nil {
		t.Fatal(err)
	}
}
