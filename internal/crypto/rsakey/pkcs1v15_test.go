package rsakey

import (
	"errors"
	"testing"
	"testing/quick"

	"memshield/internal/stats"
)

func pkcs1Key(t *testing.T) *PrivateKey {
	t.Helper()
	key, err := Generate(stats.NewReader(321), 512)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func TestSignVerifyPKCS1v15(t *testing.T) {
	key := pkcs1Key(t)
	msg := []byte("the exchange hash")
	sig, err := key.SignPKCS1v15(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sig) != key.Size() {
		t.Fatalf("sig length = %d", len(sig))
	}
	if err := key.PublicKey.VerifyPKCS1v15(msg, sig); err != nil {
		t.Fatal(err)
	}
	// Tampered signature and wrong message both fail.
	sig[10] ^= 0x01
	if err := key.PublicKey.VerifyPKCS1v15(msg, sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered = %v", err)
	}
	sig[10] ^= 0x01
	if err := key.PublicKey.VerifyPKCS1v15([]byte("other"), sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("wrong msg = %v", err)
	}
}

func TestPKCS1v15EmptyAndLargeMessages(t *testing.T) {
	key := pkcs1Key(t)
	for _, msg := range [][]byte{nil, {}, make([]byte, 10000)} {
		sig, err := key.SignPKCS1v15(msg)
		if err != nil {
			t.Fatalf("len %d: %v", len(msg), err)
		}
		if err := key.PublicKey.VerifyPKCS1v15(msg, sig); err != nil {
			t.Fatalf("len %d: %v", len(msg), err)
		}
	}
}

func TestPKCS1v15ModulusTooSmall(t *testing.T) {
	small, err := Generate(stats.NewReader(5), 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.SignPKCS1v15([]byte("m")); !errors.Is(err, ErrMsgTooLong) {
		t.Fatalf("small modulus = %v", err)
	}
}

func TestEncodePKCS1v15Structure(t *testing.T) {
	em, err := EncodePKCS1v15([]byte("m"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(em) != 64 || em[0] != 0x00 || em[1] != 0x01 {
		t.Fatalf("framing wrong: %x", em[:4])
	}
	// PS of 0xFF then 0x00 separator.
	i := 2
	for ; i < len(em) && em[i] == 0xFF; i++ {
	}
	if i-2 < 8 {
		t.Fatalf("padding too short: %d", i-2)
	}
	if em[i] != 0x00 {
		t.Fatal("missing separator")
	}
}

// Property: PKCS#1 v1.5 sign/verify round-trips arbitrary messages, and the
// raw-encode path (used by HSM-backed servers) agrees with SignPKCS1v15.
func TestQuickPKCS1v15(t *testing.T) {
	key := pkcs1Key(t)
	f := func(msg []byte) bool {
		sig, err := key.SignPKCS1v15(msg)
		if err != nil {
			return false
		}
		if key.PublicKey.VerifyPKCS1v15(msg, sig) != nil {
			return false
		}
		em, err := EncodePKCS1v15(msg, key.Size())
		if err != nil {
			return false
		}
		raw, err := key.SignCRT(em)
		if err != nil {
			return false
		}
		for i := range raw {
			if raw[i] != sig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// On a modulus the public kernel takes, VerifyPKCS1v15 builds the expected
// block and runs the public op in stack buffers: no Go allocation. A
// 1024-bit key still verifies through the heap path, and both paths give
// the same verdict as Verify over an encoded block.
func TestVerifyPKCS1v15Allocs(t *testing.T) {
	key := pkcs1Key(t)
	msg := []byte("the exchange hash")
	sig, err := key.SignPKCS1v15(msg)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := key.PublicKey.VerifyPKCS1v15(msg, sig); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("VerifyPKCS1v15 = %v allocations, want 0", allocs)
	}
	wide, err := Generate(stats.NewReader(322), 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []*PrivateKey{key, wide} {
		sig, err := k.SignPKCS1v15(msg)
		if err != nil {
			t.Fatal(err)
		}
		em, err := EncodePKCS1v15(msg, k.Size())
		if err != nil {
			t.Fatal(err)
		}
		if err := k.PublicKey.VerifyPKCS1v15(msg, sig); err != nil {
			t.Fatalf("%d bits: %v", k.N.BitLen(), err)
		}
		if err := k.PublicKey.Verify(em, sig); err != nil {
			t.Fatalf("%d bits: Verify of the encoded block: %v", k.N.BitLen(), err)
		}
		sig[len(sig)-1] ^= 1
		if err := k.PublicKey.VerifyPKCS1v15(msg, sig); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("%d bits: tampered = %v", k.N.BitLen(), err)
		}
	}
}
