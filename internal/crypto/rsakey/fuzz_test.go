package rsakey

import (
	"bytes"
	"math/big"
	"testing"
)

// FuzzParseDER ensures arbitrary input never panics the key parser; that
// anything it accepts is a genuinely valid key whose MarshalDER is the
// input itself, since the decoder accepts only canonical DER; and that
// wherever the kernel validation gives a verdict, it is Validate's.
func FuzzParseDER(f *testing.F) {
	for _, bits := range []int{128, 256, 512, 514, 1024} {
		key, err := Generate(seedReader(int64(bits)), bits)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(key.MarshalDER())
	}
	for _, key := range tinyKeys {
		f.Add(key.MarshalDER())
	}
	f.Add([]byte{0x30, 0x00})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if v, err := parseParts(data); err == nil {
			fits, kerr := v.checkKernel()
			if berr := v.key().Validate(); fits && kerr != berr {
				t.Fatalf("kernel validation: %v; Validate: %v", kerr, berr)
			}
		}
		parsed, err := ParseDER(data)
		if err != nil {
			return
		}
		if verr := parsed.Validate(); verr != nil {
			t.Fatalf("ParseDER accepted an invalid key: %v", verr)
		}
		if !bytes.Equal(parsed.MarshalDER(), data) {
			t.Fatal("ParseDER accepted an encoding MarshalDER does not give")
		}
	})
}

// tinyKeys are hand-made keys of shapes Generate never makes: P or Q of 0,
// 1 or an even value, which Validate must reject or may accept, and
// primes whose p−1 and q−1 are powers of two.
var tinyKeys = map[string]*PrivateKey{
	"p=1":         smallKey(7, 3, 3, 1, 7, 0, 3, 1),
	"q=1":         smallKey(7, 3, 3, 7, 1, 3, 0, 1),
	"p=0":         smallKey(0, 3, 3, 0, 7, 0, 3, 1),
	"even p":      smallKey(20, 5, 5, 4, 5, 2, 1, 1),
	"even q":      smallKey(20, 5, 5, 5, 4, 1, 2, 4),
	"p=7 q=5":     smallKey(35, 5, 5, 7, 5, 5, 1, 3),
	"p-1 q-1 2^k": smallKey(15, 3, 3, 3, 5, 1, 3, 2),
}

// smallKey builds a key from word-sized parts, in PKCS#1 order.
func smallKey(n, e, d, p, q, dp, dq, qinv int64) *PrivateKey {
	return &PrivateKey{
		PublicKey: PublicKey{N: big.NewInt(n), E: big.NewInt(e)},
		D:         big.NewInt(d), P: big.NewInt(p), Q: big.NewInt(q),
		Dp: big.NewInt(dp), Dq: big.NewInt(dq), Qinv: big.NewInt(qinv),
	}
}

// FuzzMontExp checks the Montgomery kernel against big.Int.Exp: any odd
// modulus above 1 of up to 256 bits, a base reduced modulo it, and an
// exponent of up to 80 bytes.
func FuzzMontExp(f *testing.F) {
	full := bytes.Repeat([]byte{0xff}, 32) // a full 256-bit exponent
	for n := 1; n <= 4; n++ {
		mod := bytes.Repeat([]byte{0xa7}, 8*n)
		m := new(big.Int).SetBytes(mod)
		base := new(big.Int).Sub(m, big.NewInt(1)).Bytes()
		for _, exp := range [][]byte{nil, {1}, {0x01, 0x00, 0x01}, full} {
			f.Add(mod, base, exp)
		}
	}
	f.Fuzz(func(t *testing.T, mod, base, exp []byte) {
		if len(mod) > kernelBits/8 || len(exp) > 80 {
			return
		}
		m := new(big.Int).SetBytes(mod)
		m.SetBit(m, 0, 1)
		if m.BitLen() < 2 {
			m.SetInt64(3)
		}
		x := new(big.Int).SetBytes(base)
		x.Mod(x, m)
		e := new(big.Int).SetBytes(exp)

		var ws workspace
		var ml, got, want limbs
		ml.load(m)
		ws.montExp(&got, x, e, &ml)
		want.load(new(big.Int).Exp(x, e, m))
		if got != want {
			t.Fatalf("%x^%x mod %x: kernel %x, math/big %x", x, e, m, got, want)
		}
	})
}

// montExp sets z = x^e mod m for odd m > 1 on the private kernel, the
// whole path SignCRT takes for one CRT half.
func (ws *workspace) montExp(z *limbs, x, e *big.Int, m *limbs) {
	inv := montInv(m[0])
	ws.powMont(words(x), words(e), m, inv)
	fromMont(z, &ws.acc, m, inv)
}

// words returns v's magnitude as little-endian 64-bit limbs.
func words(v *big.Int) []uint64 {
	w := make([]uint64, (v.BitLen()+63)/64)
	loadWords(w, v.Bits())
	return w
}

// FuzzPublicExp checks the public kernel against big.Int.Exp: any odd
// modulus above 1 of up to 512 bits, a base reduced modulo it, and an
// exponent of up to 8 bytes, through PublicOp.
func FuzzPublicExp(f *testing.F) {
	for n := 1; n <= 8; n++ {
		mod := bytes.Repeat([]byte{0xa7}, 8*n)
		m := new(big.Int).SetBytes(mod)
		base := new(big.Int).Sub(m, big.NewInt(1)).Bytes()
		for _, exp := range [][]byte{nil, {1}, {3}, {0x01, 0x00, 0x01}, bytes.Repeat([]byte{0xff}, 8)} {
			f.Add(mod, base, exp)
		}
	}
	f.Fuzz(func(t *testing.T, mod, base, exp []byte) {
		if len(mod) > 2*kernelBits/8 || len(exp) > 8 {
			return
		}
		m := new(big.Int).SetBytes(mod)
		m.SetBit(m, 0, 1)
		if m.BitLen() < 2 {
			m.SetInt64(3)
		}
		x := new(big.Int).SetBytes(base)
		x.Mod(x, m)
		pub := &PublicKey{N: m, E: new(big.Int).SetBytes(exp)}
		got, err := pub.PublicOp(x.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		want := padTo(new(big.Int).Exp(x, pub.E, m).Bytes(), (m.BitLen()+7)/8)
		if !bytes.Equal(got, want) {
			t.Fatalf("%x^%x mod %x: kernel %x, math/big %x", x, pub.E, m, got, want)
		}
	})
}

// FuzzProbablePrime checks genPrime's test of a candidate of at most 256
// bits, the kernel's rounds and then the Lucas test, against
// ProbablyPrime(20) on odd inputs.
func FuzzProbablePrime(f *testing.F) {
	for _, x := range primeSeeds(f) {
		f.Add(x.Bytes())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > kernelBits/8 {
			return
		}
		x := new(big.Int).SetBytes(b)
		x.SetBit(x, 0, 1)
		var ps primeSpace
		if got, want := ps.isPrime(x.Bytes()), x.ProbablyPrime(20); got != want {
			t.Fatalf("%d: kernel test %v, ProbablyPrime(20) %v", x, got, want)
		}
	})
}

// FuzzLucas checks the kernel's strong Lucas test on its own, since
// isPrime runs it only on candidates that pass 21 Miller–Rabin rounds and
// FuzzProbablePrime therefore never sees it reject. It compares lucas with
// lucasReference on every odd x from 3 to 2^256 − 1; and, on every x that
// passes the kernel's trial division, the kernel's base-2 round followed
// by lucas with ProbablyPrime(0), which runs that round and that test.
func FuzzLucas(f *testing.F) {
	for _, x := range lucasSeeds(f) {
		f.Add(x.Bytes())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > kernelBits/8 {
			return
		}
		x := new(big.Int).SetBytes(b)
		x.SetBit(x, 0, 1)
		if x.BitLen() < 2 {
			x.SetInt64(3)
		}
		var ps primeSpace
		loadBytes(ps.x[:], x.Bytes())
		ps.setup()
		if got, want := ps.lucas(), lucasReference(x); got != want {
			t.Fatalf("%d: kernel Lucas %v, reference %v", x, got, want)
		}
		if !ps.sieve() {
			return
		}
		if got, want := ps.strongProbablePrime(2) && ps.lucas(), x.ProbablyPrime(0); got != want {
			t.Fatalf("%d: kernel base 2 and Lucas %v, ProbablyPrime(0) %v", x, got, want)
		}
	})
}

// lucasSeeds are odd inputs that reach each exit of the Lucas test: the
// 42 composites below 10⁶ that pass it (OEIS A217719, the extra strong
// Lucas pseudoprimes), the 6 below 10⁶ with V_e ≡ ±2 that only the U
// check refuses, the squares of the Wieferich primes 1093 and 3511
// (strong pseudoprimes to base 2 that reach the square check at P = 40),
// x = P + 2 and multiples of it (the Jacobi = 0 exit), and the primes
// nearest 2^255 and 2^256.
func lucasSeeds(tb testing.TB) []*big.Int {
	var seeds []*big.Int
	for _, x := range []int64{
		989, 3239, 5777, 10877, 27971, 29681, 30739, 31631, 39059, 72389,
		73919, 75077, 100127, 113573, 125249, 137549, 137801, 153931, 155819, 161027,
		162133, 189419, 218321, 231703, 249331, 370229, 429479, 430127, 459191, 473891,
		480689, 600059, 621781, 632249, 635627, 645209, 719399, 851927, 878249, 920831,
		966779, 972311,
	} {
		n := big.NewInt(x)
		if n.ProbablyPrime(20) || !lucasReference(n) {
			tb.Fatalf("%d is not a Lucas pseudoprime", x)
		}
		seeds = append(seeds, n)
	}
	for _, x := range []int64{10469, 154697, 233659, 472453, 629693, 852389} {
		n := big.NewInt(x)
		if n.ProbablyPrime(20) || lucasReference(n) {
			tb.Fatalf("%d is prime or passes the Lucas test", x)
		}
		seeds = append(seeds, n)
	}
	for _, x := range []int64{1093 * 1093, 3511 * 3511, 3, 5, 15, 25, 35, 45} {
		seeds = append(seeds, big.NewInt(x))
	}
	top := new(big.Int).Lsh(big.NewInt(1), kernelBits)
	half := new(big.Int).Rsh(top, 1)
	return append(seeds, nextPrime(top, -2), nextPrime(half, -2), nextPrime(half, 2))
}

// FuzzMontMul checks montMul and montSqr against math/big over their
// contracts, for odd m from 3 to 2^256 − 1: montMul(x, y) = x·y·R⁻¹ mod m
// for x < R and y < m (toMont and crt's s2·R pass an x ≥ m), and
// montSqr(y) = y²·R⁻¹ mod m for y < m, each also with z aliasing an
// operand.
func FuzzMontMul(f *testing.F) {
	full := bytes.Repeat([]byte{0xff}, kernelBits/8) // R − 1, or m = 2^256 − 1
	oneLimb := bytes.Repeat([]byte{0xa7}, 8)
	mMinus1 := func(m []byte) []byte {
		return new(big.Int).Sub(new(big.Int).SetBytes(m), big.NewInt(1)).Bytes()
	}
	for _, m := range [][]byte{{3}, oneLimb, full} {
		f.Add(m, full, mMinus1(m))
		f.Add(m, mMinus1(m), mMinus1(m))
		f.Add(m, []byte{1}, []byte{1})
	}
	f.Fuzz(func(t *testing.T, mod, a, b []byte) {
		if len(mod) > kernelBits/8 || len(a) > kernelBits/8 || len(b) > kernelBits/8 {
			return
		}
		m := new(big.Int).SetBytes(mod)
		m.SetBit(m, 0, 1)
		if m.BitLen() < 2 {
			m.SetInt64(3)
		}
		x := new(big.Int).SetBytes(a)
		y := new(big.Int).SetBytes(b)
		y.Mod(y, m)
		rInv := new(big.Int).Lsh(big.NewInt(1), kernelBits)
		rInv.ModInverse(rInv, m)

		var ml, xl, yl, want limbs
		ml.load(m)
		xl.load(x)
		yl.load(y)
		inv := montInv(ml[0])
		want.load(new(big.Int).Mod(new(big.Int).Mul(new(big.Int).Mul(x, y), rInv), m))
		z, zx, zy := limbs{}, xl, yl
		montMul(&z, &xl, &yl, &ml, inv)
		montMul(&zx, &zx, &yl, &ml, inv)
		montMul(&zy, &xl, &zy, &ml, inv)
		if z != want || zx != want || zy != want {
			t.Fatalf("montMul(%x, %x) mod %x: %x, aliased %x and %x, math/big %x", x, y, m, z, zx, zy, want)
		}
		want.load(new(big.Int).Mod(new(big.Int).Mul(new(big.Int).Mul(y, y), rInv), m))
		zy = yl
		montSqr(&z, &yl, &ml, inv)
		montSqr(&zy, &zy, &ml, inv)
		if z != want || zy != want {
			t.Fatalf("montSqr(%x) mod %x: %x, aliased %x, math/big %x", y, m, z, zy, want)
		}
	})
}

// primeSeeds are odd inputs that stress a primality test: Carmichael
// numbers, strong pseudoprimes to the smallest prime bases, prime squares,
// products of two close primes, the primes nearest 2^256 and 2^255, and
// values around the trial division's bounds.
func primeSeeds(tb testing.TB) []*big.Int {
	var seeds []*big.Int
	for _, s := range []string{
		"561", "1105", "1729", "2465", "2821", "6601", "8911", "3215031751",
		"2047", "3277", // strong pseudoprimes to base 2
		"3825123056546413051",       // ... to the first 11 prime bases
		"318665857834031151167461",  // ... to the first 12
		"3317044064679887385961981", // ... to the first 13
		"1", "3", "1021", "1023", "1031", "1042441", "1048575", "1048577", "1062961",
	} {
		x, ok := new(big.Int).SetString(s, 10)
		if !ok {
			tb.Fatalf("bad seed %q", s)
		}
		seeds = append(seeds, x)
	}
	// Chernick's Carmichael numbers (6k+1)(12k+1)(18k+1), whose three
	// factors are prime for these k: 71, 131 and 236 bits.
	for _, k := range []string{"1048665", "1099511628756", "37778931862957161712206"} {
		kk, _ := new(big.Int).SetString(k, 10)
		n := big.NewInt(1)
		for _, m := range []int64{6, 12, 18} {
			factor := new(big.Int).Mul(kk, big.NewInt(m))
			factor.Add(factor, big.NewInt(1))
			if !factor.ProbablyPrime(20) {
				tb.Fatalf("Chernick factor %d·%s+1 is not prime", m, k)
			}
			n.Mul(n, factor)
		}
		seeds = append(seeds, n)
	}
	// Prime squares and products of two consecutive primes.
	for _, bits := range []uint{11, 32, 64, 100, 128} {
		p := nextPrime(new(big.Int).Lsh(big.NewInt(1), bits-1), 2)
		q := nextPrime(p, 2)
		seeds = append(seeds, new(big.Int).Mul(p, p), new(big.Int).Mul(p, q))
	}
	top := new(big.Int).Lsh(big.NewInt(1), kernelBits)
	half := new(big.Int).Rsh(top, 1)
	return append(seeds,
		nextPrime(top, -2), nextPrime(half, 2), // 2^256 − 189 and 2^255 + 95
		new(big.Int).Sub(top, big.NewInt(1)), new(big.Int).Add(half, big.NewInt(1)))
}

// nextPrime returns the first prime beyond x, not x itself, going up for
// step 2 and down for step −2.
func nextPrime(x *big.Int, step int64) *big.Int {
	p := new(big.Int).Set(x)
	p.SetBit(p, 0, 1)
	if p.Cmp(x) == 0 {
		p.Add(p, big.NewInt(step))
	} else if step < 0 {
		p.Sub(p, big.NewInt(2))
	}
	for !p.ProbablyPrime(20) {
		p.Add(p, big.NewInt(step))
	}
	return p
}
