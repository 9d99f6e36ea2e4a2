// Package hsm simulates the "special hardware" the paper's conclusion says
// is necessary to fully eliminate memory disclosure attacks: a
// cryptographic coprocessor that holds private keys in device-internal
// storage outside the machine's addressable RAM and performs private-key
// operations on-device.
//
// With an HSM-backed key, no byte of d, p or q ever exists in simulated
// physical memory — not in the page cache, not in any process heap, not in
// freed pages — so even an attack that discloses 100% of RAM recovers
// nothing. The hardware catalog experiment (figures.Hardware) quantifies
// this end state against the paper's integrated software solution, whose
// single remaining copy keeps the tty attack's success rate at the
// disclosed fraction.
//
// The device model is deliberately minimal: numbered key slots, import,
// on-device CRT private operation, public-key export, and slot destruction
// with an operation counter for cost accounting.
package hsm

import (
	"errors"
	"fmt"

	"memshield/internal/crypto/rsakey"
)

// ErrNoSlot is reported for a key slot that does not exist (never
// imported, or destroyed) and for a nil key to import.
var ErrNoSlot = errors.New("hsm: no such key slot")

// Module is one simulated hardware security module.
type Module struct {
	slots    map[int]*rsakey.PrivateKey
	nextSlot int
	ops      int
}

// New powers on an empty device.
func New() *Module {
	return &Module{slots: make(map[int]*rsakey.PrivateKey), nextSlot: 1}
}

// Import provisions a private key into the device and returns its slot
// number. The key object is copied into device storage; callers should
// discard (and scrub) their own copy — provisioning is assumed to happen
// out-of-band, before the machine faces attackers.
func (m *Module) Import(key *rsakey.PrivateKey) (int, error) {
	if key == nil {
		return 0, fmt.Errorf("%w: nil key", ErrNoSlot)
	}
	if err := key.Validate(); err != nil {
		return 0, fmt.Errorf("hsm: import: %w", err)
	}
	slot := m.nextSlot
	m.nextSlot++
	m.slots[slot] = key.Clone()
	return slot, nil
}

// PrivateOp computes input^d mod n inside the device.
func (m *Module) PrivateOp(slot int, input []byte) ([]byte, error) {
	key, ok := m.slots[slot]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSlot, slot)
	}
	m.ops++
	return key.SignCRT(input)
}

// ExportPEM re-exports a slot's private key as PEM — the re-provisioning
// escrow primitive: after a fail-closed destroy of a sealed software key,
// a supervisor (internal/supervise) draws a fresh copy from the anchor,
// re-installs the key file, and restarts the server under a new sealing
// epoch. Real devices guard this with wrap keys and policy; the model
// only needs the dataflow. The returned buffer is key material in native
// memory — the caller owns it and must scrub it (the source marker makes
// the keylifetime verifier prove that on every path).
//
//memlint:source result=0
func (m *Module) ExportPEM(slot int) ([]byte, error) {
	key, ok := m.slots[slot]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSlot, slot)
	}
	m.ops++
	return key.MarshalPEM(), nil
}

// PublicKey exports the slot's public half (public keys are not secret).
func (m *Module) PublicKey(slot int) (rsakey.PublicKey, error) {
	key, ok := m.slots[slot]
	if !ok {
		return rsakey.PublicKey{}, fmt.Errorf("%w: %d", ErrNoSlot, slot)
	}
	return key.PublicKey, nil
}

// Destroy erases a slot (key destruction is an HSM primitive): the stored
// key is zeroized, then the slot is freed.
func (m *Module) Destroy(slot int) error {
	key, ok := m.slots[slot]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSlot, slot)
	}
	key.Zeroize()
	delete(m.slots, slot)
	return nil
}

// Slots returns the number of provisioned keys.
func (m *Module) Slots() int { return len(m.slots) }

// Ops returns the number of private operations performed.
func (m *Module) Ops() int { return m.ops }

// Slot is a handle binding a device to one slot, satisfying the servers'
// key-backend interface.
type Slot struct {
	Module *Module
	ID     int
}

// PrivateOp performs the on-device private operation.
func (s Slot) PrivateOp(input []byte) ([]byte, error) {
	return s.Module.PrivateOp(s.ID, input)
}

// PublicKey returns the slot's public key.
func (s Slot) PublicKey() (rsakey.PublicKey, error) {
	return s.Module.PublicKey(s.ID)
}
