package rsakey

import (
	"crypto/sha256"
	"math/big"
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

// BenchmarkPublicOp times the public operation every sshd handshake
// verifies with and every httpd handshake encrypts with: a signature
// raised to e = 65537 over a 512-bit modulus, on the 8-limb kernel
// (PublicOp) and, as the baseline it replaced, on big.Int.Exp.
func BenchmarkPublicOp(b *testing.B) {
	key, err := Generate(stats.NewReader(42), 512)
	if err != nil {
		b.Fatal(err)
	}
	digest := sha256.Sum256([]byte("memshield handshake"))
	em, err := EncodePKCS1v15(digest[:], key.Size())
	if err != nil {
		b.Fatal(err)
	}
	sig, err := key.SignCRT(em)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if sigSink, err = key.PublicKey.PublicOp(sig); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("big.Int.Exp", func(b *testing.B) {
		b.ReportAllocs()
		s := new(big.Int).SetBytes(sig)
		for i := 0; i < b.N; i++ {
			sigSink = padTo(new(big.Int).Exp(s, key.E, key.N).Bytes(), key.Size())
		}
	})
}

// limbSink keeps the compiler from discarding benchmarked products.
var limbSink limbs

// montOperands returns a 256-bit prime m, the first prime of a benchmark
// key, and two values below it drawn from a fixed seed.
func montOperands(b *testing.B) (m, x, y limbs) {
	key, err := Generate(stats.NewReader(42), 512)
	if err != nil {
		b.Fatal(err)
	}
	m.load(key.P)
	r := stats.NewReader(7)
	for _, v := range []*limbs{&x, &y} {
		var buf [kernelBits / 8]byte
		if _, err := r.Read(buf[:]); err != nil {
			b.Fatal(err)
		}
		buf[0] &= 0x3f // below 2^254, and m has its top two bits set
		loadBytes(v[:], buf[:])
	}
	return m, x, y
}

// BenchmarkMontMul times one Montgomery product modulo a 256-bit prime,
// the multiply of every fixed window in a CRT half and a Miller–Rabin
// round. Each product feeds the next, as in an exponentiation.
func BenchmarkMontMul(b *testing.B) {
	m, x, y := montOperands(b)
	inv := montInv(m[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		montMul(&x, &x, &y, &m, inv)
	}
	limbSink = x
}

// BenchmarkMontSqr times one Montgomery squaring modulo a 256-bit prime,
// four of which run per exponent window of every CRT half and Miller–Rabin
// round. Each square feeds the next.
func BenchmarkMontSqr(b *testing.B) {
	m, x, _ := montOperands(b)
	inv := montInv(m[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		montSqr(&x, &x, &m, inv)
	}
	limbSink = x
}

// BenchmarkGenerate times one 512-bit key generation, which every
// simulated machine runs for each tenant at boot. Iteration i draws from
// seed i, so the candidates tested vary from key to key as they do across
// machines, and two runs of the same length time the same keys.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(stats.NewReader(int64(i)), 512); err != nil {
			b.Fatal(err)
		}
	}
}
