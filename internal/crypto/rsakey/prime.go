package rsakey

import (
	"fmt"
	"io"
	"math/big"
	"math/bits"

	"memshield/internal/scrub"
)

// This file holds keygen's prime search. genPrime draws candidates from a
// reader; one of at most kernelBits bits, as both primes of every key of
// at most 512 bits are, is tested on the private kernel in mont.go, and a
// wider one on big.Int.ProbablyPrime(20). Both tests accept the same
// candidates (DESIGN.md §4), so every key is the one ProbablyPrime alone
// would have found.

// sieveBound bounds the kernel test's trial division: it divides by every
// odd prime below it, so a candidate below sieveBound² is decided by trial
// division alone.
const sieveBound = 1024

// mrBases are the bases of the kernel test's Miller–Rabin rounds: the
// first 21 primes. ProbablyPrime(20) runs 21 rounds too, base 2 first.
var mrBases = [...]uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73}

// primeGroup is a run of the sieve's primes whose product fits a uint64,
// so one pass over a candidate's limbs reduces it modulo all of them.
type primeGroup struct {
	prod   uint64
	primes []uint64
}

// sieveGroups holds the odd primes below sieveBound, ascending, in groups.
var sieveGroups = groupPrimes()

// groupPrimes sieves the odd primes below sieveBound and packs them into
// groups, each as long as its product fits a uint64.
func groupPrimes() []primeGroup {
	var composite [sieveBound]bool
	var groups []primeGroup
	g := primeGroup{prod: 1}
	for p := uint64(3); p < sieveBound; p += 2 {
		if composite[p] {
			continue
		}
		for m := p * p; m < sieveBound; m += 2 * p {
			composite[m] = true
		}
		if hi, _ := bits.Mul64(g.prod, p); hi != 0 {
			groups = append(groups, g)
			g = primeGroup{prod: 1}
		}
		g.prod *= p
		g.primes = append(g.primes, p)
	}
	return append(groups, g)
}

// primeSpace is the scratch of one kernel primality test: the candidate,
// the odd part of candidate − 1, and 1 and −1 in Montgomery form, beside
// the workspace whose rr and powR2 run each Miller–Rabin round. genPrime
// wipes it before returning.
type primeSpace struct {
	workspace
	x, d       limbs // the candidate x, and d with x − 1 = 2^s·d, d odd
	one, minus limbs // R mod x and (x − 1)·R mod x
}

// wipe zeroes every word of ps.
func (ps *primeSpace) wipe() { *ps = primeSpace{} }

// genPrime draws random candidates of exactly `bits` bits from r until one
// is probably prime. Unlike crypto/rand.Prime, it consumes a deterministic
// amount of entropy per candidate, so the same reader always yields the same
// prime — the reproducibility every experiment in this repository depends on.
func genPrime(r io.Reader, bits int) (*big.Int, error) {
	if bits < 16 {
		return nil, fmt.Errorf("rsakey: prime size %d too small", bits)
	}
	buf := make([]byte, (bits+7)/8)
	defer scrub.Bytes(buf)
	var ps primeSpace
	defer ps.wipe()
	p := new(big.Int)
	for {
		if _, err := io.ReadFull(r, buf); err != nil {
			scrub.Big(p)
			return nil, fmt.Errorf("rsakey: entropy: %w", err)
		}
		// Keep the low `bits` bits, then force exactly `bits` bits, with the
		// top two set so products of two such primes keep full modulus
		// length, and make it odd.
		buf[0] &= 0xff >> (8*len(buf) - bits)
		setBit(buf, bits-1)
		setBit(buf, bits-2)
		setBit(buf, 0)
		if bits <= kernelBits && ps.isPrime(buf, p) || bits > kernelBits && p.SetBytes(buf).ProbablyPrime(20) {
			return p, nil
		}
	}
}

// setBit sets bit i of the big-endian value b.
func setBit(b []byte, i int) { b[len(b)-1-i/8] |= 1 << (i % 8) }

// isPrime is genPrime's test of the big-endian candidate b of at most
// kernelBits bits: trial division and Miller–Rabin rounds on the kernel,
// then, for a candidate that passes them, the strong Lucas test of
// ProbablyPrime(0) on math/big. It sets p to the candidate once the kernel
// rounds pass, and leaves it alone otherwise.
func (ps *primeSpace) isPrime(b []byte, p *big.Int) bool {
	loadBytes(ps.x[:], b)
	return ps.probablyPrime() && p.SetBytes(b).ProbablyPrime(0)
}

// probablyPrime reports whether ps.x is prime, exactly for x below
// sieveBound², and otherwise whether it has no odd prime factor below
// sieveBound and is a strong probable prime to every base in mrBases.
func (ps *primeSpace) probablyPrime() bool {
	x := &ps.x
	if x[1]|x[2]|x[3] == 0 && x[0] < sieveBound*sieveBound {
		return smallPrime(x[0])
	}
	if x[0]&1 == 0 {
		return false
	}
	for _, g := range sieveGroups {
		r := rem(x, g.prod)
		for _, p := range g.primes {
			if r%p == 0 {
				return false
			}
		}
	}
	// x − 1 = 2^s·d with d odd; x is odd and above 1, so x − 1 is even and
	// not zero.
	ps.d = *x
	ps.d[0]--
	s := 0
	for ps.d[s/64] == 0 {
		s += 64
	}
	s += bits.TrailingZeros64(ps.d[s/64])
	for i := range ps.d { // shift in place: limb i reads only limbs i and up
		j, b := i+s/64, s%64
		ps.d[i] = word(ps.d[:], j) >> b
		if b != 0 {
			ps.d[i] |= word(ps.d[:], j+1) << (64 - b)
		}
	}
	inv := montInv(x[0])
	ps.rr(x, inv)
	fromMont(&ps.one, &ps.r2, x, inv)
	modSub(&ps.minus, &limbs{}, &ps.one, x)
	d := trim(ps.d[:])
	for _, a := range mrBases {
		base := [1]uint64{a}
		ps.powR2(base[:], d, x, inv)
		if !ps.strongWitness(s, x, inv) {
			return false
		}
	}
	return true
}

// strongWitness finishes a Miller–Rabin round with ws.acc = a^d·R mod x:
// it reports whether a^d ≡ 1 or a^(2^i·d) ≡ −1 (mod x) for some i < s,
// as every base does when x is prime.
func (ps *primeSpace) strongWitness(s int, x *limbs, inv uint64) bool {
	y := &ps.acc
	if *y == ps.one || *y == ps.minus {
		return true
	}
	for i := 1; i < s; i++ {
		montSqr(y, y, x, inv)
		if *y == ps.minus {
			return true
		}
		if *y == ps.one {
			return false // a nontrivial square root of 1
		}
	}
	return false
}

// smallPrime reports whether x, below sieveBound², is prime: no prime up to
// its square root divides it.
func smallPrime(x uint64) bool {
	if x < 2 || x%2 == 0 {
		return x == 2
	}
	for _, g := range sieveGroups {
		for _, p := range g.primes {
			if p*p > x {
				return true
			}
			if x%p == 0 {
				return false
			}
		}
	}
	return true
}

// rem returns x mod m.
func rem(x *limbs, m uint64) uint64 {
	var r uint64
	for i := len(x) - 1; i >= 0; i-- {
		r = bits.Rem64(r, x[i], m)
	}
	return r
}
