package rsakey

import (
	"bytes"
	"crypto/sha256"
	"fmt"
)

// sha256DigestInfo is the DER prefix of a PKCS#1 v1.5 DigestInfo for
// SHA-256 (RFC 8017 §9.2 note 1).
var sha256DigestInfo = []byte{
	0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01,
	0x65, 0x03, 0x04, 0x02, 0x01, 0x05, 0x00, 0x04, 0x20,
}

// minPKCS1Padding is the mandated minimum of 8 padding FF octets plus the
// 3 framing octets.
const minPKCS1Padding = 11

// SignPKCS1v15 produces an RSASSA-PKCS1-v1_5 signature over the SHA-256
// digest of msg — the signature format the SSH host-key proof and TLS
// ServerKeyExchange actually use. The modulus must be large enough for the
// encoded DigestInfo plus minimum padding (≥ 62 bytes, i.e. ≥ 496 bits).
func (k *PrivateKey) SignPKCS1v15(msg []byte) ([]byte, error) {
	em, err := pkcs1v15Encode(msg, k.Size())
	if err != nil {
		return nil, err
	}
	return k.SignCRT(em)
}

// VerifyPKCS1v15 checks an RSASSA-PKCS1-v1_5/SHA-256 signature. For a
// modulus the public kernel takes, the expected block and sig^E mod N are
// built in buffers on its stack.
func (pub *PublicKey) VerifyPKCS1v15(msg, sig []byte) error {
	size := (pub.N.BitLen() + 7) / 8
	if !pub.onKernel() {
		em, err := pkcs1v15Encode(msg, size)
		if err != nil {
			return err
		}
		return pub.Verify(em, sig)
	}
	var em, m [2 * kernelBits / 8]byte
	if err := pkcs1v15Fill(em[:size], msg); err != nil {
		return err
	}
	return verified(m[:size], em[:size], pub.publicOpInto(m[:size], sig))
}

// EncodePKCS1v15 builds the EMSA-PKCS1-v1_5 message representative for the
// SHA-256 digest of msg, for callers that drive a raw private operation
// (an HSM slot, a smartcard). Padding uses no secret material.
func EncodePKCS1v15(msg []byte, size int) ([]byte, error) {
	return pkcs1v15Encode(msg, size)
}

// pkcs1v15Encode builds EM = 0x00 0x01 FF…FF 0x00 || DigestInfo || H(msg).
func pkcs1v15Encode(msg []byte, size int) ([]byte, error) {
	em := make([]byte, size)
	if err := pkcs1v15Fill(em, msg); err != nil {
		return nil, err
	}
	return em, nil
}

// pkcs1v15Fill writes pkcs1v15Encode's block, of len(em) bytes, into em.
func pkcs1v15Fill(em, msg []byte) error {
	digest := sha256.Sum256(msg)
	size := len(em)
	tLen := len(sha256DigestInfo) + len(digest)
	if size < tLen+minPKCS1Padding {
		return fmt.Errorf("%w: modulus too small for PKCS#1 v1.5/SHA-256 (%d < %d bytes)",
			ErrMsgTooLong, size, tLen+minPKCS1Padding)
	}
	em[0], em[1] = 0x00, 0x01
	psLen := size - tLen - 3
	for i := 0; i < psLen; i++ {
		em[2+i] = 0xFF
	}
	em[2+psLen] = 0x00 // separator
	copy(em[3+psLen:], sha256DigestInfo)
	copy(em[3+psLen+len(sha256DigestInfo):], digest[:])
	if !bytes.HasPrefix(em, []byte{0x00, 0x01}) {
		return fmt.Errorf("rsakey: internal encoding error")
	}
	return nil
}
