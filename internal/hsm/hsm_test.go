package hsm

import (
	"errors"
	"math/big"
	"testing"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/scrub"
	"memshield/internal/stats"
)

func testKey(t *testing.T) *rsakey.PrivateKey {
	t.Helper()
	key, err := rsakey.Generate(stats.NewReader(44), 512)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func TestImportAndPrivateOp(t *testing.T) {
	m := New()
	key := testKey(t)
	slot, err := m.Import(key)
	if err != nil {
		t.Fatal(err)
	}
	if m.Slots() != 1 {
		t.Fatal("Slots wrong")
	}
	msg := []byte("device-op-input")
	sig, err := m.PrivateOp(slot, msg)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := m.PublicKey(slot)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Verify(msg, sig); err != nil {
		t.Fatal("device signature must verify")
	}
	if m.Ops() != 1 {
		t.Fatal("Ops counter wrong")
	}
}

func TestImportPEM(t *testing.T) {
	m := New()
	key := testKey(t)
	slot, err := m.ImportPEM(key.MarshalPEM())
	if err != nil {
		t.Fatal(err)
	}
	pub, err := m.PublicKey(slot)
	if err != nil || pub.N.Cmp(key.N) != 0 {
		t.Fatal("imported key mismatch")
	}
	if _, err := m.ImportPEM([]byte("garbage")); err == nil {
		t.Fatal("garbage PEM should fail")
	}
}

func TestImportValidates(t *testing.T) {
	m := New()
	if _, err := m.Import(nil); err == nil {
		t.Fatal("nil key should fail")
	}
	bad := *testKey(t)
	bad.P = new(big.Int).Add(bad.P, big.NewInt(2))
	if _, err := m.Import(&bad); err == nil {
		t.Fatal("inconsistent key should fail")
	}
}

func TestDestroy(t *testing.T) {
	m := New()
	slot, err := m.Import(testKey(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Destroy(slot); err != nil {
		t.Fatal(err)
	}
	if _, err := m.PrivateOp(slot, []byte("x")); !errors.Is(err, ErrNoSlot) {
		t.Fatalf("op on destroyed slot = %v", err)
	}
	if err := m.Destroy(slot); !errors.Is(err, ErrNoSlot) {
		t.Fatalf("double destroy = %v", err)
	}
	if _, err := m.PublicKey(99); !errors.Is(err, ErrNoSlot) {
		t.Fatalf("public key of bad slot = %v", err)
	}
}

// TestImportCopiesKey follows Import's contract: the caller scrubs its own
// copy once the device holds the key, and the device keeps working.
func TestImportCopiesKey(t *testing.T) {
	m := New()
	key := testKey(t)
	slot, err := m.Import(key)
	if err != nil {
		t.Fatal(err)
	}
	key.Zeroize()
	msg := []byte("after-caller-scrub")
	sig, err := m.PrivateOp(slot, msg)
	if err != nil {
		t.Fatalf("PrivateOp after the caller zeroized its copy: %v", err)
	}
	pub, err := m.PublicKey(slot)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Verify(msg, sig); err != nil {
		t.Fatal("device signature must verify after the caller's scrub")
	}
}

func TestDestroyZeroizesStoredKey(t *testing.T) {
	m := New()
	slot, err := m.Import(testKey(t))
	if err != nil {
		t.Fatal(err)
	}
	stored := m.slots[slot]
	if err := m.Destroy(slot); err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]*big.Int{
		"d": stored.D, "p": stored.P, "q": stored.Q,
		"dp": stored.Dp, "dq": stored.Dq, "qinv": stored.Qinv,
	} {
		if v.Sign() != 0 {
			t.Errorf("%s survives Destroy: %v", name, v)
		}
	}
}

func TestSlotHandle(t *testing.T) {
	m := New()
	key := testKey(t)
	id, err := m.Import(key)
	if err != nil {
		t.Fatal(err)
	}
	s := Slot{Module: m, ID: id}
	msg := []byte("handle-op")
	sig, err := s.PrivateOp(msg)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := s.PublicKey()
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Verify(msg, sig); err != nil {
		t.Fatal("slot handle signature must verify")
	}
}

func TestExportPEM(t *testing.T) {
	m := New()
	key := testKey(t)
	slot, err := m.Import(key)
	if err != nil {
		t.Fatal(err)
	}
	opsBefore := m.Ops()
	pem, err := m.ExportPEM(slot)
	if err != nil {
		t.Fatal(err)
	}
	defer scrub.Bytes(pem)
	if m.Ops() != opsBefore+1 {
		t.Fatalf("export should count as a device operation: %d -> %d", opsBefore, m.Ops())
	}
	// The escrow round-trips: the exported PEM parses back to the same key.
	back, err := rsakey.ParsePEM(pem)
	if err != nil {
		t.Fatal(err)
	}
	if back.D.Cmp(key.D) != 0 || back.P.Cmp(key.P) != 0 || back.Q.Cmp(key.Q) != 0 {
		t.Fatal("exported key does not match the provisioned one")
	}
	if _, err := m.ExportPEM(slot + 99); !errors.Is(err, ErrNoSlot) {
		t.Fatalf("export of an unknown slot: %v", err)
	}
	if err := m.Destroy(slot); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ExportPEM(slot); !errors.Is(err, ErrNoSlot) {
		t.Fatalf("export of a destroyed slot: %v", err)
	}
}
