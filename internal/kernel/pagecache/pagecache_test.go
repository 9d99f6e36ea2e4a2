package pagecache

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"memshield/internal/kernel/alloc"
	"memshield/internal/mem"
)

func newCache(t *testing.T, pages int, policy alloc.Policy) (*mem.Memory, *alloc.Allocator, *Cache) {
	t.Helper()
	m, err := mem.New(pages)
	if err != nil {
		t.Fatal(err)
	}
	a, err := alloc.New(m, policy)
	if err != nil {
		t.Fatal(err)
	}
	return m, a, New(m, a)
}

func TestReadPopulatesAndHits(t *testing.T) {
	m, a, c := newCache(t, 32, alloc.PolicyRetain)
	content := bytes.Repeat([]byte("PEMDATA-"), 700) // ~5.5 KB, 2 pages
	got, err := c.Read(7, content)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("first read content mismatch")
	}
	if !c.Cached(7) || c.CachedPageCount() != 2 {
		t.Fatalf("cached=%v pages=%d", c.Cached(7), c.CachedPageCount())
	}
	if a.FreePages() != 30 {
		t.Fatalf("FreePages = %d, want 30", a.FreePages())
	}
	// Cached content is physically present in memory.
	if len(m.FindAll(content[:64])) == 0 {
		t.Fatal("cached file content should be findable in physical memory")
	}
	// Second read hits.
	got2, err := c.Read(7, nil) // content ignored on hit
	if err != nil || !bytes.Equal(got2, content) {
		t.Fatalf("hit read mismatch: %v", err)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v", s)
	}
	for _, pn := range c.Pages(7) {
		if m.Frame(pn).Owner != mem.OwnerPageCache {
			t.Fatalf("cache page %d owner = %v", pn, m.Frame(pn).Owner)
		}
	}
}

func TestEmptyFileOccupiesOnePage(t *testing.T) {
	_, a, c := newCache(t, 8, alloc.PolicyRetain)
	got, err := c.Read(1, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty read = %v, %v", got, err)
	}
	if c.CachedPageCount() != 1 || a.FreePages() != 7 {
		t.Fatal("empty file should cache one page")
	}
}

func TestEvictWithoutZeroLeavesContent(t *testing.T) {
	m, a, c := newCache(t, 8, alloc.PolicyRetain)
	content := []byte("SECRET-PEM-FILE-CONTENT")
	if _, err := c.Read(1, content); err != nil {
		t.Fatal(err)
	}
	if err := c.Evict(1, false); err != nil {
		t.Fatal(err)
	}
	if c.Cached(1) || c.CachedPageCount() != 0 {
		t.Fatal("file should be evicted")
	}
	if a.FreePages() != 8 {
		t.Fatal("pages should be freed")
	}
	// Retain policy + no zeroing: content persists in unallocated memory.
	if len(m.FindAll(content)) != 1 {
		t.Fatal("plain eviction should leave stale content")
	}
}

func TestEvictWithZeroScrubs(t *testing.T) {
	m, _, c := newCache(t, 8, alloc.PolicyRetain)
	content := []byte("SECRET-PEM-FILE-CONTENT")
	if _, err := c.Read(1, content); err != nil {
		t.Fatal(err)
	}
	if err := c.Evict(1, true); err != nil {
		t.Fatal(err)
	}
	if len(m.FindAll(content)) != 0 {
		t.Fatal("zeroing eviction must scrub content even under retain policy")
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestEvictUncachedIsNoop(t *testing.T) {
	_, _, c := newCache(t, 4, alloc.PolicyRetain)
	if err := c.Evict(42, true); err != nil {
		t.Fatal(err)
	}
}

func TestPopulateOOMRollsBack(t *testing.T) {
	_, a, c := newCache(t, 2, alloc.PolicyRetain)
	// 3-page file cannot fit in 2-page machine.
	big := make([]byte, 3*mem.PageSize)
	if _, err := c.Read(1, big); err == nil {
		t.Fatal("want OOM error")
	}
	if c.Cached(1) {
		t.Fatal("failed populate must not leave a cache entry")
	}
	if a.FreePages() != 2 {
		t.Fatalf("FreePages = %d, want 2 (rollback)", a.FreePages())
	}
}

func TestPagesReturnsCopy(t *testing.T) {
	_, _, c := newCache(t, 8, alloc.PolicyRetain)
	if _, err := c.Read(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	pages := c.Pages(1)
	pages[0] = 9999
	if c.Pages(1)[0] == 9999 {
		t.Fatal("Pages must return a defensive copy")
	}
}

// Property: cache round-trips arbitrary content sizes, including exact page
// multiples and tails.
func TestQuickReadRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		m, _ := mem.New(64)
		a, _ := alloc.New(m, alloc.PolicyRetain)
		c := New(m, a)
		rng := rand.New(rand.NewSource(seed))
		size := rng.Intn(3 * mem.PageSize)
		content := make([]byte, size)
		rng.Read(content)
		got, err := c.Read(1, content)
		if err != nil || !bytes.Equal(got, content) {
			return false
		}
		// Hit path returns the same bytes.
		got2, err := c.Read(1, nil)
		return err == nil && bytes.Equal(got2, content)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
