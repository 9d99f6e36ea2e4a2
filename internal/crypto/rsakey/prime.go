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

// primeSpace is the scratch of one kernel primality test, beside the
// workspace whose rr and powR2 run each Miller–Rabin round: the candidate,
// the odd parts of candidate − 1 and candidate + 1, the Montgomery
// constants the rounds and the Lucas test share, the Lucas test's terms,
// and the square root search. genPrime wipes it before returning.
type primeSpace struct {
	workspace
	x, d, e    limbs  // the candidate x; d and e odd, x − 1 = 2^s·d, x + 1 = 2^r·e
	s          int    // s with x − 1 = 2^s·d
	inv        uint64 // −x⁻¹ mod 2^64
	one, minus limbs  // R mod x and (x − 1)·R mod x
	lp, two    limbs  // the Lucas parameter P and 2, times R mod x
	vk, vk1, t limbs  // V_k·R and V_(k+1)·R mod x, and a term being compared
	root, sq   limbs  // ⌊√x⌋ as it is built, and its square
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
		if bits <= kernelBits && ps.isPrime(buf) {
			return p.SetBytes(buf), nil
		}
		if bits > kernelBits && p.SetBytes(buf).ProbablyPrime(20) {
			return p, nil
		}
	}
}

// setBit sets bit i of the big-endian value b.
func setBit(b []byte, i int) { b[len(b)-1-i/8] |= 1 << (i % 8) }

// isPrime is genPrime's test of the big-endian candidate b of at most
// kernelBits bits, all on the kernel: the trial division and Miller–Rabin
// rounds of probablyPrime, then, unless trial division decided x alone,
// the strong Lucas test, which with the base-2 round makes Baillie–PSW.
func (ps *primeSpace) isPrime(b []byte) bool {
	loadBytes(ps.x[:], b)
	return ps.probablyPrime() && (ps.x.sieveDecides() || ps.lucas())
}

// sieveDecides reports whether x is below sieveBound², where trial
// division alone decides it.
func (x *limbs) sieveDecides() bool { return x[1]|x[2]|x[3] == 0 && x[0] < sieveBound*sieveBound }

// probablyPrime reports whether ps.x is prime, exactly for x below
// sieveBound², and otherwise whether it has no odd prime factor below
// sieveBound and is a strong probable prime to every base in mrBases.
func (ps *primeSpace) probablyPrime() bool {
	if !ps.sieve() {
		return false
	}
	if ps.x.sieveDecides() {
		return true
	}
	ps.setup()
	for _, a := range mrBases {
		if !ps.strongProbablePrime(a) {
			return false
		}
	}
	return true
}

// sieve is the trial division: it reports whether ps.x is prime for x
// below sieveBound², and otherwise whether x is odd and no odd prime below
// sieveBound divides it.
func (ps *primeSpace) sieve() bool {
	x := &ps.x
	if x.sieveDecides() {
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
	return true
}

// setup prepares the Miller–Rabin rounds and the Lucas test for an odd
// candidate x > 1: d and s with x − 1 = 2^s·d, −x⁻¹ mod 2^64, R² mod x,
// and 1 and −1 in Montgomery form.
func (ps *primeSpace) setup() {
	x := &ps.x
	ps.d = *x
	ps.d[0]-- // x is odd and above 1, so x − 1 is even and not zero
	ps.s = trailingZeros(&ps.d)
	shr(&ps.d, &ps.d, ps.s)
	ps.inv = montInv(x[0])
	ps.rr(x, ps.inv)
	fromMont(&ps.one, &ps.r2, x, ps.inv)
	modSub(&ps.minus, &limbs{}, &ps.one, x)
}

// strongProbablePrime runs the Miller–Rabin round to base a on ps.x, after
// setup: it reports whether a^d ≡ 1 or a^(2^i·d) ≡ −1 (mod x) for some
// i < s, as every base does when x is prime.
func (ps *primeSpace) strongProbablePrime(a uint64) bool {
	x, y := &ps.x, &ps.acc
	base := [1]uint64{a}
	ps.powR2(base[:], trim(ps.d[:]), x, ps.inv)
	if *y == ps.one || *y == ps.minus {
		return true
	}
	for i := 1; i < ps.s; i++ {
		montSqr(y, y, x, ps.inv)
		if *y == ps.minus {
			return true
		}
		if *y == ps.one {
			return false // a nontrivial square root of 1
		}
	}
	return false
}

// lucas reports whether ps.x, odd and above 1, passes the extra strong
// Lucas test that big.Int.ProbablyPrime runs after its base-2 round, on
// the kernel and after setup, whose R² it reuses. It picks P by
// Baillie–OEIS method C: P = 3, 4, … until Jacobi(P² − 4, x) = −1, with
// Q = 1. With x + 1 = 2^r·e and e odd, x passes if V_e ≡ ±2 and
// U_e ≡ 0 (mod x), or if V_(2^t·e) ≡ 0 for some t < r − 1. Every prime
// passes. The V terms stay in Montgomery form.
func (ps *primeSpace) lucas() bool {
	x, inv := &ps.x, ps.inv
	p := uint64(3)
	for {
		j := jacobiDx(p*p-4, x)
		if j == -1 {
			break
		}
		if j == 0 {
			// P² − 4 = (P − 2)(P + 2) shares a factor with x, and no smaller
			// P − 2 did, so P + 2 divides x: x is prime exactly when it is
			// P + 2.
			return x[1]|x[2]|x[3] == 0 && x[0] == p+2
		}
		// A square x has no P with Jacobi −1. Past a few dozen tries that
		// is the likely cause, so check for it once, at 40.
		if p == 40 && ps.isSquare() {
			return false
		}
		if p++; p > 10000 {
			return false // math/big panics here; no such x is known
		}
	}

	// x + 1 = 2^r·e: r counts x's trailing ones, and e = ⌊x / 2^r⌋ + 1,
	// whose low bit is x's bit r, a zero, so the add carries nowhere.
	r := 0
	for r < kernelBits && x[r/64]>>(r%64)&1 == 1 {
		r++
	}
	shr(&ps.e, x, r)
	ps.e[0]++

	// V_0 = 2 and V_1 = P, then for each bit of e from the top,
	// V_2k = V_k² − 2 and V_(2k+1) = V_k·V_(k+1) − P take k to 2k or 2k + 1.
	montMul(&ps.lp, &limbs{p}, &ps.r2, x, inv)
	modAdd(&ps.two, &ps.one, &ps.one, x)
	ps.vk, ps.vk1 = ps.two, ps.lp
	for i := bitLen(&ps.e) - 1; i >= 0; i-- {
		if ps.e[i/64]>>(i%64)&1 == 1 {
			ps.lucasStep(&ps.vk, &ps.vk, &ps.vk1, &ps.lp)
			ps.lucasStep(&ps.vk1, &ps.vk1, &ps.vk1, &ps.two)
		} else {
			ps.lucasStep(&ps.vk1, &ps.vk, &ps.vk1, &ps.lp)
			ps.lucasStep(&ps.vk, &ps.vk, &ps.vk, &ps.two)
		}
	}

	// V_e ≡ ±2, and U_e ≡ 0, which holds when 2·V_(e+1) ≡ P·V_e since
	// D·U_e = 2·V_(e+1) − P·V_e and D is prime to x.
	modAdd(&ps.t, &ps.vk, &ps.two, x)
	if ps.vk == ps.two || ps.t == (limbs{}) {
		montMul(&ps.t, &ps.vk, &ps.lp, x, inv)
		modAdd(&ps.vk1, &ps.vk1, &ps.vk1, x)
		if ps.t == ps.vk1 {
			return true
		}
	}

	// V_(2^t·e) ≡ 0 for some t < r − 1. V = 2 is a fixed point of
	// V ← V² − 2, so once there no later term is 0.
	for i := 0; i < r-1; i++ {
		if ps.vk == (limbs{}) {
			return true
		}
		if ps.vk == ps.two {
			return false
		}
		ps.lucasStep(&ps.vk, &ps.vk, &ps.vk, &ps.two)
	}
	return false
}

// lucasStep sets z = a·b − c mod ps.x, all in Montgomery form and below x.
func (ps *primeSpace) lucasStep(z, a, b, c *limbs) {
	if a == b {
		montSqr(z, a, &ps.x, ps.inv)
	} else {
		montMul(z, a, b, &ps.x, ps.inv)
	}
	modSub(z, z, c, &ps.x)
}

// isSquare reports whether ps.x is a perfect square. It builds ⌊√x⌋ from
// the top bit down, keeping each bit whose square stays at most x.
func (ps *primeSpace) isSquare() bool {
	ps.root = limbs{}
	for i := kernelBits/2 - 1; i >= 0; i-- {
		ps.root[i/64] |= 1 << (i % 64)
		mulInto(ps.sq[:], ps.root[:2], ps.root[:2])
		if below(ps.x[:], &ps.sq) {
			ps.root[i/64] &^= 1 << (i % 64)
		}
	}
	mulInto(ps.sq[:], ps.root[:2], ps.root[:2])
	return ps.sq == ps.x
}

// jacobiDx returns the Jacobi symbol (D/x) for D > 0 and odd x, from x's
// residue modulo the odd part c of D = 2^k·c: (2/x) is −1 when x ≡ ±3
// (mod 8), and quadratic reciprocity gives (c/x) = (x mod c / c), negated
// when c ≡ x ≡ 3 (mod 4).
func jacobiDx(d uint64, x *limbs) int {
	k := bits.TrailingZeros64(d)
	c := d >> k
	j := jacobi(rem(x, c), c)
	if k&1 == 1 && (x[0]&7 == 3 || x[0]&7 == 5) {
		j = -j
	}
	if c&3 == 3 && x[0]&3 == 3 {
		j = -j
	}
	return j
}

// jacobi returns the Jacobi symbol (a/n) for odd n and a < n, by the same
// two rules: pull out the factors of 2, then swap a and n.
func jacobi(a, n uint64) int {
	j := 1
	for a != 0 {
		k := bits.TrailingZeros64(a)
		a >>= k
		if k&1 == 1 && (n&7 == 3 || n&7 == 5) {
			j = -j
		}
		if a&3 == 3 && n&3 == 3 {
			j = -j
		}
		a, n = n%a, a
	}
	if n != 1 {
		return 0 // gcd(a, n) = n > 1
	}
	return j
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
