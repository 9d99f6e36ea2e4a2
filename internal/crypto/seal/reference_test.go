package seal

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"memshield/internal/kernel"
	"memshield/internal/kernel/alloc"
	"memshield/internal/libc"
	"memshield/internal/stats"
)

// refDerive is the epoch key derivation on crypto/hmac.
func refDerive(prekey []byte, label string, epoch uint64, size int) []byte {
	var e [8]byte
	binary.BigEndian.PutUint64(e[:], epoch)
	m := hmac.New(sha256.New, prekey)
	m.Write([]byte(label))
	m.Write(e[:])
	return m.Sum(nil)[:size]
}

// refSeal is one epoch's ciphertext and tag of plain on crypto/hmac and
// cipher.NewCTR.
func refSeal(t *testing.T, prekey, plain []byte, epoch uint64) (ct, tag []byte) {
	t.Helper()
	block, err := aes.NewCipher(refDerive(prekey, "memshield-seal-enc", epoch, 32))
	if err != nil {
		t.Fatal(err)
	}
	ct = make([]byte, len(plain))
	cipher.NewCTR(block, refDerive(prekey, "memshield-seal-iv", epoch, aes.BlockSize)).XORKeyStream(ct, plain)
	m := hmac.New(sha256.New, refDerive(prekey, "memshield-seal-tag", epoch, 32))
	m.Write(ct)
	return ct, m.Sum(nil)
}

// The region's ciphertext and tag are those of the reference after New,
// after each of three windows, and from a start epoch.
func TestSealMatchesReference(t *testing.T) {
	k, err := kernel.New(kernel.Config{MemPages: 512, DeallocPolicy: alloc.PolicyRetain})
	if err != nil {
		t.Fatal(err)
	}
	pid, err := k.Spawn(0, "sealref")
	if err != nil {
		t.Fatal(err)
	}
	h := libc.New(k, pid)
	plain := make([]byte, 200)
	for i := range plain {
		plain[i] = byte(i*13 + 5)
	}
	check := func(r *Region, what string) {
		t.Helper()
		got, err := h.Read(r.base, r.n)
		if err != nil {
			t.Fatal(err)
		}
		ct, tag := refSeal(t, r.prekey[:], plain, r.epoch)
		if !bytes.Equal(got, ct) || !bytes.Equal(r.tag[:], tag) {
			t.Fatalf("%s (epoch %d): region or tag differs from the reference", what, r.epoch)
		}
	}
	for _, start := range []uint64{0, 5 << 32} {
		base, err := h.Memalign(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Write(base, plain); err != nil {
			t.Fatal(err)
		}
		r, err := New(h, nil, base, len(plain), stats.NewReader(7), WithStartEpoch(start))
		if err != nil {
			t.Fatal(err)
		}
		check(r, "New")
		for w := 0; w < 3; w++ {
			if err := r.WithOpen(func() error {
				got, err := h.Read(base, len(plain))
				if err == nil && !bytes.Equal(got, plain) {
					t.Error("the open window does not hold the plaintext")
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}
			check(r, "window")
		}
		if r.epoch != start+3 {
			t.Fatalf("epoch = %d, want %d", r.epoch, start+3)
		}
	}
}
