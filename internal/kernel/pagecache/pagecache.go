// Package pagecache implements the simulated kernel's page cache.
//
// When a file is read, its contents are copied into page-cache frames and
// stay there indefinitely — which is why, in the paper's experiments, the
// PEM-encoded private key file is visible in physical memory from the moment
// the filesystem touches it until the machine shuts down, even while the
// server is stopped.
//
// The paper's integrated library–kernel solution adds an O_NOCACHE open flag:
// after such a read is served, the kernel immediately removes the file's
// pages from the cache (remove_from_page_cache), clears them
// (clear_highpage) and frees them, so the PEM file leaves no trace. Evict
// with zero=true models exactly that patch; note the clearing happens in the
// patch itself, independent of the allocator's dealloc policy.
package pagecache

import (
	"errors"
	"fmt"
	"sort"

	"memshield/internal/fault"
	"memshield/internal/kernel/alloc"
	"memshield/internal/mem"
)

// Stats counts cache activity.
type Stats struct {
	Hits      int // reads served from cached pages
	Misses    int // reads that had to populate the cache
	Evictions int // pages removed from the cache
}

// Cache is the machine-wide page cache, keyed by file ID.
type Cache struct {
	mem   *mem.Memory
	alloc *alloc.Allocator
	files map[int][]mem.PageNum
	sizes map[int]int // cached content length per file
	// injector makes fault-injection decisions (nil = no injection).
	injector *fault.Injector
	stats    Stats
}

// SetInjector attaches (or detaches, with nil) a fault injector covering
// SiteEvict.
func (c *Cache) SetInjector(in *fault.Injector) { c.injector = in }

// New creates an empty page cache.
func New(m *mem.Memory, a *alloc.Allocator) *Cache {
	return &Cache{
		mem:   m,
		alloc: a,
		files: make(map[int][]mem.PageNum),
		sizes: make(map[int]int),
	}
}

// Cached reports whether the file currently has pages in the cache.
func (c *Cache) Cached(fileID int) bool {
	_, ok := c.files[fileID]
	return ok
}

// Pages returns a copy of the cached page list for the file.
func (c *Cache) Pages(fileID int) []mem.PageNum {
	src := c.files[fileID]
	out := make([]mem.PageNum, len(src))
	copy(out, src)
	return out
}

// CachedPageCount returns the total number of pages in the cache.
func (c *Cache) CachedPageCount() int {
	n := 0
	for _, pages := range c.files {
		n += len(pages)
	}
	return n
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Read serves a file read through the cache: on miss it populates
// page-cache frames with content, on hit it serves from the existing frames.
// The returned slice is a fresh copy of the cached bytes.
func (c *Cache) Read(fileID int, content []byte) ([]byte, error) {
	if pages, ok := c.files[fileID]; ok {
		c.stats.Hits++
		return c.readPages(pages, c.sizes[fileID])
	}
	c.stats.Misses++
	if err := c.populate(fileID, content); err != nil {
		return nil, err
	}
	return c.readPages(c.files[fileID], c.sizes[fileID])
}

// populate copies content into freshly allocated page-cache frames.
func (c *Cache) populate(fileID int, content []byte) error {
	npages := (len(content) + mem.PageSize - 1) / mem.PageSize
	if npages == 0 {
		npages = 1 // empty files still occupy one cache page
	}
	pages := make([]mem.PageNum, 0, npages)
	for i := 0; i < npages; i++ {
		pn, err := c.alloc.AllocPage(mem.OwnerPageCache)
		if err != nil {
			for _, p := range pages {
				_ = c.alloc.Free(p)
			}
			return fmt.Errorf("pagecache: populate file %d: %w", fileID, err)
		}
		// Page-cache pages are filled from "disk"; clear first so the
		// tail of the final page holds no stale bytes.
		if err := c.mem.ZeroPage(pn); err != nil {
			return err
		}
		lo := i * mem.PageSize
		hi := lo + mem.PageSize
		if hi > len(content) {
			hi = len(content)
		}
		if lo < len(content) {
			if err := c.mem.Write(pn.Base(), content[lo:hi]); err != nil {
				return err
			}
		}
		pages = append(pages, pn)
	}
	c.files[fileID] = pages
	c.sizes[fileID] = len(content)
	return nil
}

// readPages reassembles the cached content.
func (c *Cache) readPages(pages []mem.PageNum, size int) ([]byte, error) {
	out := make([]byte, size)
	for i, pn := range pages {
		lo := i * mem.PageSize
		if lo >= size {
			break
		}
		if err := c.mem.ReadInto(out[lo:min(lo+mem.PageSize, size)], pn.Base()); err != nil {
			clear(out)
			return nil, err
		}
	}
	return out, nil
}

// ErrBusy is returned when eviction would free pages still mapped into a
// process (an mmap of the file is live).
var ErrBusy = errors.New("pagecache: file pages are mapped")

// ErrEvictIO is an eviction failure of the O_NOCACHE removal path. Only
// produced under fault injection.
var ErrEvictIO = errors.New("pagecache: eviction failed")

// Evict removes the file's pages from the cache and frees them. With
// zero=true the pages are cleared first (the O_NOCACHE patch's
// clear_highpage call), guaranteeing no trace regardless of the allocator's
// dealloc policy. Evicting an uncached file is a no-op; evicting a file
// whose pages are memory-mapped fails with ErrBusy.
//
// If a page's release fails mid-way (an injected zero-on-free, say), the
// cache entry is rewritten to hold exactly the not-yet-freed pages: no
// freed page is ever left listed, so a retried Evict cannot double-free.
func (c *Cache) Evict(fileID int, zero bool) error {
	pages, ok := c.files[fileID]
	if !ok {
		return nil
	}
	for _, pn := range pages {
		if c.mem.Frame(pn).RefCount > 1 {
			return fmt.Errorf("%w: file %d page %d", ErrBusy, fileID, pn)
		}
	}
	if err := c.injector.Fail(fault.SiteEvict); err != nil {
		return fmt.Errorf("%w: file %d: %w", ErrEvictIO, fileID, err)
	}
	for i, pn := range pages {
		if zero {
			if err := c.mem.ZeroPage(pn); err != nil {
				c.files[fileID] = pages[i:]
				return fmt.Errorf("pagecache: evict file %d: %w", fileID, err)
			}
		}
		if err := c.alloc.Free(pn); err != nil {
			c.files[fileID] = pages[i:]
			return fmt.Errorf("pagecache: evict file %d: %w", fileID, err)
		}
		c.stats.Evictions++
	}
	delete(c.files, fileID)
	delete(c.sizes, fileID)
	return nil
}

// EvictAll empties the whole cache (in file-ID order, so the freed pages
// hit the allocator deterministically).
func (c *Cache) EvictAll(zero bool) error {
	ids := make([]int, 0, len(c.files))
	for fileID := range c.files {
		ids = append(ids, fileID)
	}
	sort.Ints(ids)
	for _, fileID := range ids {
		if err := c.Evict(fileID, zero); err != nil {
			return err
		}
	}
	return nil
}
