//go:build unix && !race

package mem

import (
	"fmt"
	"sync/atomic"
	"syscall"
)

// mapped reports that page arrays are anonymous private mappings outside
// the Go heap (DESIGN.md §12). The collector does not count them toward
// its heap goal, so the garbage it lets build up between collections is
// sized by the Go heap alone, not by twice the simulated RAM. Every
// mapping has one owner: a handle, whose finalizer unmaps it if the
// handle is dropped without Release, or the free list, which unmaps what
// it drops.
const mapped = true

// mappings counts the arrays mapped and not yet unmapped.
var mappings atomic.Int64

// newArray maps n zero bytes.
func newArray(n int) ([]byte, error) {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mem: map %d bytes: %w", n, err)
	}
	mappings.Add(1)
	return b, nil
}

// freeArray unmaps an array newArray returned. No slice of it may be used
// afterwards.
func freeArray(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic("mem: unmap: " + err.Error())
	}
	mappings.Add(-1)
}
