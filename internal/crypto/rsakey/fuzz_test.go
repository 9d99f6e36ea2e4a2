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
