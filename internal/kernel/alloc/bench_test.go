package alloc

import (
	"math/rand"
	"testing"

	"memshield/internal/mem"
)

// BenchmarkAllocFree times one order-0 allocate, a one-byte write and a
// free per policy on a scrambled 32 MiB allocator (free lists fragmented
// and shuffled the way kernel.ScrambleFreeMemory leaves them) — the page
// cycle the repository benchmark's alloc.page_cycle_ns probes time. The
// write makes the page dirty, so zero_on_free and secure_dealloc time a
// real clear: mem skips the clear of a page that holds only zeros. Under
// secure-dealloc each cycle also drains the deferred scrub with Tick.
func BenchmarkAllocFree(b *testing.B) {
	one := []byte{1}
	for _, p := range []Policy{PolicyRetain, PolicyZeroOnFree, PolicySecureDealloc} {
		b.Run(p.String(), func(b *testing.B) {
			m, err := mem.New(8192)
			if err != nil {
				b.Fatal(err)
			}
			a, err := New(m, p)
			if err != nil {
				b.Fatal(err)
			}
			scramble(b, a, 2007)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pn, err := a.AllocPage(mem.OwnerUser)
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Write(pn.Base(), one); err != nil {
					b.Fatal(err)
				}
				if err := a.Free(pn); err != nil {
					b.Fatal(err)
				}
				a.Tick()
			}
		})
	}
}

// scramble allocates every free page, keeps one in 16 as boot-reserved and
// frees the rest in a seeded random order.
func scramble(b *testing.B, a *Allocator, seed int64) {
	b.Helper()
	var pages []mem.PageNum
	for {
		pn, err := a.AllocPage(mem.OwnerKernel)
		if err != nil {
			break
		}
		pages = append(pages, pn)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(pages), func(i, j int) { pages[i], pages[j] = pages[j], pages[i] })
	for i, pn := range pages {
		if i%16 == 0 {
			continue
		}
		if err := a.Free(pn); err != nil {
			b.Fatal(err)
		}
	}
	a.Tick()
}
