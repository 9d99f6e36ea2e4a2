package libc

import (
	"testing"

	"memshield/internal/kernel/alloc"
)

// BenchmarkArenaCycle times one httpd request's buffer on a worker heap
// with no arena: Malloc of 4 KiB maps a fresh 16-page arena, the payload
// is written into it, and Free releases the arena to a zero-on-free
// kernel.
func BenchmarkArenaCycle(b *testing.B) {
	_, _, h := newHeap(b, 256, alloc.PolicyZeroOnFree)
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := h.Malloc(len(payload))
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Write(p, payload); err != nil {
			b.Fatal(err)
		}
		if err := h.Free(p); err != nil {
			b.Fatal(err)
		}
	}
}
