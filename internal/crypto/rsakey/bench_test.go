package rsakey

import (
	"crypto/sha256"
	"testing"

	"memshield/internal/stats"
)

// sigSink keeps the compiler from discarding benchmarked signatures.
var sigSink []byte

// BenchmarkSignCRT times one CRT private operation on a 512-bit key over a
// PKCS#1 v1.5 message representative, the operation every handshake runs.
func BenchmarkSignCRT(b *testing.B) {
	key, err := Generate(stats.NewReader(42), 512)
	if err != nil {
		b.Fatal(err)
	}
	digest := sha256.Sum256([]byte("memshield handshake"))
	em, err := EncodePKCS1v15(digest[:], key.Size())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sigSink, err = key.SignCRT(em); err != nil {
			b.Fatal(err)
		}
	}
}
