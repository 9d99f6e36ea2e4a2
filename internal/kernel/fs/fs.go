// Package fs implements the simulated filesystem, including the ext2
// directory-creation vulnerability the paper's first attack exploits.
//
// The vulnerability (Arkoon advisory, March 2005; fixed in Linux 2.6.12 /
// 2.4.30): ext2's make_empty wrote only the "." and ".." directory entries
// into a freshly allocated block and pushed the block — including up to
// 4072 uninitialized bytes of whatever kernel page it landed on — out to
// disk, where an unprivileged user could read it back. Creating thousands of
// directories on, say, a small USB stick therefore samples thousands of
// recently freed kernel pages, which (on a busy TLS/SSH server) are full of
// private-key material.
//
// Mkdir here reproduces the mechanism: it allocates an UNZEROED page for the
// directory block, writes a small dirent header, and exposes the stale tail
// as the attacker-visible leak. Two independent fixes neutralize it, both
// modelled: the upstream fix (WithLeakFixed — the block tail is cleared
// before use) and the paper's kernel-level zero-on-free policy (stale pages
// are already zero when Mkdir grabs them).
package fs

import (
	"errors"
	"fmt"

	"memshield/internal/fault"
	"memshield/internal/kernel/alloc"
	"memshield/internal/kernel/pagecache"
	"memshield/internal/mem"
)

// OpenFlag carries open(2)-style flags relevant to the simulation.
type OpenFlag uint32

// Open flags.
const (
	// ONoCache is the paper's new kernel flag: after the read is served,
	// the file's page-cache entry is removed and its pages are cleared
	// and freed.
	ONoCache OpenFlag = 1 << iota
)

// dirHeaderSize is the number of bytes of real directory metadata written
// into a new block; the advisory's 4072-byte figure is PageSize minus this.
const dirHeaderSize = 24

// MaxLeakPerDir is the maximum number of stale bytes a single vulnerable
// Mkdir can disclose, matching the advisory's "up to 4072 bytes".
const MaxLeakPerDir = mem.PageSize - dirHeaderSize

// Errors reported by the filesystem.
var (
	ErrNotFound = errors.New("fs: no such file")
	ErrExists   = errors.New("fs: already exists")
	// ErrIO is a backing-device read failure. Only produced under fault
	// injection.
	ErrIO = errors.New("fs: I/O error")
)

type file struct {
	id   int
	data []byte
}

type dir struct {
	page mem.PageNum
}

// FS is one mounted simulated filesystem.
type FS struct {
	mem       *mem.Memory
	alloc     *alloc.Allocator
	cache     *pagecache.Cache
	files     map[string]*file
	dirs      map[string]*dir
	nextID    int
	leakFixed bool
	// injector makes fault-injection decisions (nil = no injection).
	injector *fault.Injector
}

// SetInjector attaches (or detaches, with nil) a fault injector covering
// SiteFSRead.
func (f *FS) SetInjector(in *fault.Injector) { f.injector = in }

// Option configures the filesystem.
type Option func(*FS)

// WithLeakFixed applies the upstream ext2 fix: directory blocks are fully
// initialized, so Mkdir leaks nothing.
func WithLeakFixed() Option {
	return func(f *FS) { f.leakFixed = true }
}

// New mounts a filesystem over the given memory, allocator and page cache.
func New(m *mem.Memory, a *alloc.Allocator, c *pagecache.Cache, opts ...Option) *FS {
	f := &FS{
		mem:    m,
		alloc:  a,
		cache:  c,
		files:  make(map[string]*file),
		dirs:   make(map[string]*dir),
		nextID: 1,
	}
	for _, o := range opts {
		o(f)
	}
	return f
}

// LeakFixed reports whether the upstream ext2 fix is applied.
func (f *FS) LeakFixed() bool { return f.leakFixed }

// WriteFile stores (or replaces) a file's on-disk contents. Replacing a file
// invalidates any cached pages (without zeroing: ordinary truncation does
// not scrub).
func (f *FS) WriteFile(path string, data []byte) error {
	if existing, ok := f.files[path]; ok {
		if err := f.cache.Evict(existing.id, false); err != nil {
			return err
		}
		existing.data = append([]byte(nil), data...)
		return nil
	}
	f.files[path] = &file{id: f.nextID, data: append([]byte(nil), data...)}
	f.nextID++
	return nil
}

// ReadFile reads a file through the page cache. With ONoCache the cached
// pages are removed, cleared and freed immediately after the read — the
// integrated solution's mechanism for keeping the PEM file out of memory.
func (f *FS) ReadFile(path string, flags OpenFlag) ([]byte, error) {
	fl, ok := f.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, path)
	}
	if err := f.injector.Fail(fault.SiteFSRead); err != nil {
		return nil, fmt.Errorf("%w: %q: %w", ErrIO, path, err)
	}
	data, err := f.cache.Read(fl.id, fl.data)
	if err != nil {
		return nil, err
	}
	if flags&ONoCache != 0 {
		if err := f.cache.Evict(fl.id, true); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// FileID returns the cache key of a file.
func (f *FS) FileID(path string) (int, error) {
	fl, ok := f.files[path]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, path)
	}
	return fl.id, nil
}

// Mkdir creates a directory and returns the bytes an attacker can read back
// from the new directory's on-disk block beyond the real metadata — on a
// vulnerable filesystem, up to MaxLeakPerDir bytes of stale kernel-page
// content. The block's page stays allocated (buffer cache) until the
// directory is removed, so successive Mkdirs sample successively deeper into
// the free lists, exactly like the real attack walking through freed server
// pages.
func (f *FS) Mkdir(path string) ([]byte, error) {
	if _, ok := f.dirs[path]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, path)
	}
	pn, err := f.alloc.AllocPage(mem.OwnerKernel)
	if err != nil {
		return nil, fmt.Errorf("fs: mkdir %q: %w", path, err)
	}
	// Write the "." and ".." dirents. Only the header is initialized.
	header := make([]byte, dirHeaderSize)
	copy(header, []byte(".\x00\x00\x00..\x00\x00"))
	if err := f.mem.Write(pn.Base(), header); err != nil {
		return nil, err
	}
	if f.leakFixed {
		// Upstream fix: initialize the whole block.
		if err := f.mem.Zero(pn.Base()+dirHeaderSize, MaxLeakPerDir); err != nil {
			return nil, err
		}
	}
	f.dirs[path] = &dir{page: pn}
	leak, err := f.mem.Read(pn.Base()+dirHeaderSize, MaxLeakPerDir)
	if err != nil {
		return nil, err
	}
	return leak, nil
}

// RemoveDir deletes a directory, freeing its block page.
func (f *FS) RemoveDir(path string) error {
	d, ok := f.dirs[path]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, path)
	}
	if err := f.alloc.Free(d.page); err != nil {
		return err
	}
	delete(f.dirs, path)
	return nil
}

// NumDirs returns the number of directories present.
func (f *FS) NumDirs() int { return len(f.dirs) }

// NumFiles returns the number of files present.
func (f *FS) NumFiles() int { return len(f.files) }
