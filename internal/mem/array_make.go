//go:build !unix || race

package mem

// mapped is false where page arrays are Go slices: under the race
// detector, which then sees every access to simulated memory, and on
// systems without an anonymous mmap.
const mapped = false

func newArray(n int) ([]byte, error) { return make([]byte, n), nil }

func freeArray([]byte) {}
