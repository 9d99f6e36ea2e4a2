package kernel

import (
	"testing"

	"memshield/internal/kernel/alloc"
)

// BenchmarkBoot times the boot of one benchmark-sized machine (the 19,152
// pages fleet.Sized gives about 5,000 connections per machine): kernel
// New and the free-list scramble, then the Release that hands the memory
// to the next iteration's New, as the fleet does between machines.
func BenchmarkBoot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k, err := New(Config{MemPages: 19152, DeallocPolicy: alloc.PolicyZeroOnFree})
		if err != nil {
			b.Fatal(err)
		}
		if err := k.ScrambleFreeMemory(int64(i)); err != nil {
			b.Fatal(err)
		}
		k.Mem().Release()
	}
}
