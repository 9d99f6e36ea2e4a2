package ssl

import (
	"crypto/sha256"
	"testing"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/stats"
)

// opSink keeps the compiler from discarding benchmarked results.
var opSink []byte

// BenchmarkD2iPrivateKey times one load of a 512-bit key into a process
// and its release, as the re-exec levels do on every connection: the
// repository benchmark's ssl.d2i_us probe.
func BenchmarkD2iPrivateKey(b *testing.B) {
	f := newFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.load(b).Free(true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrivateOp times one private operation on an aligned 512-bit key
// read out of simulated memory, plain and sealed at rest (where each
// operation is one unseal→reseal window) — the two operations the
// repository benchmark's ssl.private_op_us and seal.window_us probes time.
func BenchmarkPrivateOp(b *testing.B) {
	digest := sha256.Sum256([]byte("memshield handshake"))
	for _, sealed := range []bool{false, true} {
		name := "plain"
		if sealed {
			name = "sealed"
		}
		b.Run(name, func(b *testing.B) {
			f := newFixture(b)
			r := f.load(b, WithAutoAlign())
			if sealed {
				if err := r.SealAtRest(stats.NewReader(7), nil); err != nil {
					b.Fatal(err)
				}
			}
			em, err := rsakey.EncodePKCS1v15(digest[:], f.key.Size())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if opSink, err = r.PrivateOp(em); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
