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
		if got, want := ps.isPrime(x.Bytes(), new(big.Int)), x.ProbablyPrime(20); got != want {
			t.Fatalf("%d: kernel test %v, ProbablyPrime(20) %v", x, got, want)
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
