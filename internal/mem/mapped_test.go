//go:build unix && !race

package mem

import (
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// freeListLen returns how many memories the free list holds.
func freeListLen() int {
	released.mu.Lock()
	defer released.mu.Unlock()
	return len(released.mems)
}

// settle runs the collector until every live mapping has an owner the test
// knows of: the free list, or one of the held handles. On the way the
// finalizers of memories that earlier tests dropped unmap their arrays.
// It gives up after about five seconds of collections.
func settle(t *testing.T, held int) {
	t.Helper()
	for i := 0; ; i++ {
		want := int64(freeListLen() + held)
		got := mappings.Load()
		if got == want {
			return
		}
		if i == 5000 {
			t.Fatalf("live mappings = %d, want %d (free list %d + %d held)", got, want, want-int64(held), held)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// A memory dropped without Release is unmapped by its finalizer, and so
// is one that New took from the free list.
func TestDroppedMemoryUnmapped(t *testing.T) {
	settle(t, 0)
	m := mustNew(t, 3)
	settle(t, 1)
	runtime.KeepAlive(m)
	settle(t, 0)

	r := mustNew(t, 3)
	first := r.Frame(0)
	r.Release()
	reused := mustNew(t, 3)
	if reused.Frame(0) != first {
		t.Fatal("New(3) did not reuse the released memory")
	}
	settle(t, 1)
	runtime.KeepAlive(reused)
	settle(t, 0)
}

// Release hands the mapping to the free list and disarms the handle's
// finalizer, so collecting the empty handle unmaps nothing and the next
// New of the size gets the same mapping back.
func TestReleaseKeepsMapping(t *testing.T) {
	settle(t, 0)
	m := mustNew(t, 6)
	data := unsafe.SliceData(m.data)
	settle(t, 1)
	live := mappings.Load()
	m.Release()
	for range 3 {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := mappings.Load(); got != live {
		t.Fatalf("after Release and GC: live mappings = %d, want %d", got, live)
	}
	n := mustNew(t, 6)
	if unsafe.SliceData(n.data) != data {
		t.Fatal("New(6) mapped a new array instead of reusing the released one")
	}
	if got := mappings.Load(); got != live {
		t.Fatalf("after the reusing New: live mappings = %d, want %d", got, live)
	}
	if err := n.Write(PageNum(5).Base(), []byte("mapped")); err != nil {
		t.Fatal(err)
	}
	if got, _ := n.Read(PageNum(5).Base(), 6); string(got) != "mapped" {
		t.Fatalf("read back %q from the reused mapping", got)
	}
	runtime.KeepAlive(n)
}

// Releasing a memory of another size drops the free list's arrays and
// unmaps each of them at once.
func TestReleaseOtherSizeUnmaps(t *testing.T) {
	settle(t, 0)
	a, b := mustNew(t, 4), mustNew(t, 4)
	a.Release()
	b.Release()
	dropped := freeListLen()
	if dropped < 2 {
		t.Fatalf("free list holds %d memories after two Releases, want at least 2", dropped)
	}
	c := mustNew(t, 5)
	live := mappings.Load()
	c.Release()
	if got, want := mappings.Load(), live-int64(dropped); got != want {
		t.Fatalf("after releasing another size: live mappings = %d, want %d", got, want)
	}
	if n := freeListLen(); n != 1 {
		t.Fatalf("free list holds %d memories, want 1", n)
	}
	settle(t, 0)
}
