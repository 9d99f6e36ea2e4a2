package rsakey

import (
	"bytes"
	"fmt"
	"io"
	"math/big"
	"slices"
	"testing"

	"memshield/internal/stats"
)

// genPrimeReference is the prime search genPrime replaced, kept as the
// reference its keys must match: every candidate on ProbablyPrime(20).
func genPrimeReference(r io.Reader, bits int) (*big.Int, error) {
	if bits < 16 {
		return nil, fmt.Errorf("rsakey: prime size %d too small", bits)
	}
	buf := make([]byte, (bits+7)/8)
	mask := new(big.Int).Lsh(big.NewInt(1), uint(bits))
	mask.Sub(mask, big.NewInt(1))
	p := new(big.Int)
	for {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("rsakey: entropy: %w", err)
		}
		p.SetBytes(buf)
		p.And(p, mask)
		p.SetBit(p, bits-1, 1)
		p.SetBit(p, bits-2, 1)
		p.SetBit(p, 0, 1)
		if p.ProbablyPrime(20) {
			return new(big.Int).Set(p), nil
		}
	}
}

// TestGenerateMatchesReference checks that Generate gives byte-identical
// keys to the reference search: 200 seeds at 512 bits, whose primes are
// all tested on the kernel, and a few at 256 bits and at 768 and 1024,
// whose primes are too wide for it.
func TestGenerateMatchesReference(t *testing.T) {
	for _, c := range []struct{ bits, seeds int }{{512, 200}, {256, 5}, {768, 3}, {1024, 3}} {
		t.Run(fmt.Sprint(c.bits), func(t *testing.T) {
			for seed := int64(0); seed < int64(c.seeds); seed++ {
				got, err := Generate(stats.NewReader(seed), c.bits)
				if err != nil {
					t.Fatal(err)
				}
				want, err := generate(stats.NewReader(seed), c.bits, genPrimeReference)
				if err != nil {
					t.Fatal(err)
				}
				if string(got.MarshalDER()) != string(want.MarshalDER()) {
					t.Fatalf("seed %d: Generate and the reference search give different keys", seed)
				}
			}
		})
	}
}

// TestKernelRoundsDecideSeeds checks the kernel's trial division and
// Miller–Rabin rounds alone, without the Lucas test, on every seed of
// FuzzProbablePrime: they reject each composite there, Carmichael numbers
// and the strong pseudoprimes to the first 13 prime bases among them, and
// accept each prime.
func TestKernelRoundsDecideSeeds(t *testing.T) {
	for _, x := range primeSeeds(t) {
		var ps primeSpace
		loadBytes(ps.x[:], x.Bytes())
		if got, want := ps.probablyPrime(), x.ProbablyPrime(20); got != want {
			t.Errorf("%d: kernel rounds %v, ProbablyPrime(20) %v", x, got, want)
		}
	}
}

// TestIsPrimeAllocs checks that isPrime accepts a 256-bit prime without a
// Go allocation, so no math/big scratch, pooled or not, ever holds the
// prime.
func TestIsPrimeAllocs(t *testing.T) {
	b := nextPrime(new(big.Int).Lsh(big.NewInt(1), kernelBits), -2).Bytes()
	var ps primeSpace
	if !ps.isPrime(b) {
		t.Fatalf("isPrime rejects the prime %x", b)
	}
	if n := testing.AllocsPerRun(20, func() { ps.isPrime(b) }); n != 0 {
		t.Fatalf("isPrime made %v allocations per call, want 0", n)
	}
}

// keepReader reads from r and keeps every buffer it was handed.
type keepReader struct {
	r    io.Reader
	bufs [][]byte
}

func (k *keepReader) Read(b []byte) (int, error) {
	k.bufs = append(k.bufs, b)
	return k.r.Read(b)
}

// TestGenPrimeScrubsCandidates checks that the buffer genPrime reads its
// candidates into, the last of which is the prime it returns, is all zero
// once it returns, on the kernel's width and above it.
func TestGenPrimeScrubsCandidates(t *testing.T) {
	for _, bits := range []int{256, 384} {
		r := &keepReader{r: stats.NewReader(int64(bits))}
		p, err := genPrime(r, bits)
		if err != nil {
			t.Fatal(err)
		}
		if p.BitLen() != bits || !p.ProbablyPrime(20) {
			t.Fatalf("%d bits: genPrime returned %d", bits, p)
		}
		for _, b := range r.bufs {
			if !bytes.Equal(b, make([]byte, len(b))) {
				t.Fatalf("%d bits: candidate buffer not scrubbed: %x", bits, b)
			}
		}
	}
}

// TestGenerateScrubsRejectedPrimes checks that generate scrubs a pair of
// primes it refuses: the prime search hands it an equal pair first, and
// both primes' limbs must read zero once generate has returned the key it
// built on the next pair.
func TestGenerateScrubsRejectedPrimes(t *testing.T) {
	var first *big.Int
	var limbs [][]big.Word
	equalFirst := func(r io.Reader, bits int) (*big.Int, error) {
		if len(limbs) == 1 {
			q := new(big.Int).Set(first)
			limbs = append(limbs, q.Bits())
			return q, nil
		}
		p, err := genPrime(r, bits)
		if err == nil && first == nil {
			first = p
			limbs = append(limbs, p.Bits())
		}
		return p, err
	}
	key, err := generate(stats.NewReader(1), 512, equalFirst)
	if err != nil {
		t.Fatal(err)
	}
	if len(limbs) != 2 || key.P == first || key.Q == first {
		t.Fatal("generate did not refuse the equal pair")
	}
	if err := key.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, w := range limbs {
		if slices.ContainsFunc(w, func(x big.Word) bool { return x != 0 }) {
			t.Fatalf("prime %d of the refused pair not scrubbed: %x", i, w)
		}
	}
}

// lucasReference is math/big's probablyPrimeLucas (go1.24) transcribed
// onto big.Int: the extra strong Lucas test with Baillie–OEIS method C
// parameters (math/big's comment says almost extra strong, but it checks
// U_e too), the reference the kernel's lucas must match. Where
// math/big's nat subtraction V² − 2 would underflow (V = 1 in the last
// loop), it takes the residue, as the kernel does.
func lucasReference(n *big.Int) bool {
	one, two := big.NewInt(1), big.NewInt(2)
	if n.Sign() <= 0 || n.Cmp(one) == 0 {
		return false
	}
	if n.Bit(0) == 0 {
		return n.Cmp(two) == 0
	}
	p := int64(3)
	d := new(big.Int)
	for ; ; p++ {
		if p > 10000 {
			panic("lucasReference: no P with Jacobi(P² − 4, n) = −1 for " + n.String())
		}
		d.SetInt64(p*p - 4)
		j := big.Jacobi(d, n)
		if j == -1 {
			break
		}
		if j == 0 {
			return n.Cmp(big.NewInt(p+2)) == 0
		}
		if p == 40 {
			r := new(big.Int).Sqrt(n)
			if r.Mul(r, r).Cmp(n) == 0 {
				return false
			}
		}
	}
	s := new(big.Int).Add(n, one)
	r := int(s.TrailingZeroBits())
	s.Rsh(s, uint(r))
	nm2 := new(big.Int).Sub(n, two)
	bp := big.NewInt(p)
	vk, vk1, t := big.NewInt(2), big.NewInt(p), new(big.Int)
	for i := s.BitLen(); i >= 0; i-- {
		if s.Bit(i) != 0 {
			vk.Mod(t.Sub(t.Add(t.Mul(vk, vk1), n), bp), n)
			vk1.Mod(t.Add(t.Mul(vk1, vk1), nm2), n)
		} else {
			vk1.Mod(t.Sub(t.Add(t.Mul(vk, vk1), n), bp), n)
			vk.Mod(t.Add(t.Mul(vk, vk), nm2), n)
		}
	}
	if vk.Cmp(two) == 0 || vk.Cmp(nm2) == 0 {
		u := new(big.Int).Lsh(vk1, 1)
		if t.Mod(t.Sub(t.Mul(vk, bp), u), n).Sign() == 0 {
			return true
		}
	}
	for i := 0; i < r-1; i++ {
		if vk.Sign() == 0 {
			return true
		}
		if vk.Cmp(two) == 0 {
			return false
		}
		vk.Mod(t.Sub(t.Mul(vk, vk), two), n)
	}
	return false
}
