// Package der implements the minimal subset of ASN.1 DER needed to encode
// and decode PKCS#1 RSAPrivateKey structures — the wire format inside the
// PEM file whose page-cache copy the paper's attacks recover.
//
// Only three constructs are needed: definite lengths, INTEGER, and SEQUENCE.
// Encoding is strictly minimal (DER, not BER): integers carry no redundant
// leading octets and lengths use the shortest form.
package der

import (
	"errors"
	"fmt"
)

// ASN.1 tags used by PKCS#1.
const (
	TagInteger  = 0x02
	TagSequence = 0x30
)

// Errors reported by the decoder.
var (
	ErrTruncated    = errors.New("der: truncated input")
	ErrBadTag       = errors.New("der: unexpected tag")
	ErrBadLength    = errors.New("der: invalid length encoding")
	ErrNonMinimal   = errors.New("der: non-minimal encoding")
	ErrNegative     = errors.New("der: negative integer not supported")
	ErrTrailingData = errors.New("der: trailing data")
)

// AppendLength appends the DER definite-length encoding of n.
func AppendLength(dst []byte, n int) []byte {
	if n < 0x80 {
		return append(dst, byte(n))
	}
	// Long form: count bytes needed.
	var tmp [8]byte
	i := len(tmp)
	for v := n; v > 0; v >>= 8 {
		i--
		tmp[i] = byte(v)
	}
	dst = append(dst, byte(0x80|(len(tmp)-i)))
	return append(dst, tmp[i:]...)
}

// AppendInteger appends a DER INTEGER whose value is the unsigned big-endian
// byte string val (leading zeros in val are stripped; a sign octet is added
// when the top bit is set; the empty/zero value encodes as 0x02 0x01 0x00).
func AppendInteger(dst []byte, val []byte) []byte {
	for len(val) > 0 && val[0] == 0 {
		val = val[1:]
	}
	dst = append(dst, TagInteger)
	if len(val) == 0 {
		return append(dst, 0x01, 0x00)
	}
	if val[0]&0x80 != 0 {
		dst = AppendLength(dst, len(val)+1)
		dst = append(dst, 0x00)
		return append(dst, val...)
	}
	dst = AppendLength(dst, len(val))
	return append(dst, val...)
}

// AppendSequence appends a DER SEQUENCE wrapping content.
func AppendSequence(dst []byte, content []byte) []byte {
	dst = append(dst, TagSequence)
	dst = AppendLength(dst, len(content))
	return append(dst, content...)
}

// Decoder walks a DER byte string.
type Decoder struct {
	data []byte
	off  int
}

// NewDecoder creates a decoder over data.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Empty reports whether all input has been consumed.
func (d *Decoder) Empty() bool { return d.off >= len(d.data) }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.data) - d.off }

// readLength consumes a definite length.
func (d *Decoder) readLength() (int, error) {
	if d.off >= len(d.data) {
		return 0, ErrTruncated
	}
	b := d.data[d.off]
	d.off++
	if b < 0x80 {
		return int(b), nil
	}
	nbytes := int(b & 0x7F)
	if nbytes == 0 || nbytes > 4 {
		return 0, fmt.Errorf("%w: %d length octets", ErrBadLength, nbytes)
	}
	if d.off+nbytes > len(d.data) {
		return 0, ErrTruncated
	}
	n := 0
	for i := 0; i < nbytes; i++ {
		n = n<<8 | int(d.data[d.off+i])
	}
	d.off += nbytes
	if n < 0x80 && nbytes == 1 {
		return 0, fmt.Errorf("%w: long form for short length", ErrNonMinimal)
	}
	if nbytes > 1 && d.data[d.off-nbytes] == 0 {
		return 0, fmt.Errorf("%w: leading zero length octet", ErrNonMinimal)
	}
	return n, nil
}

// ReadTLV consumes one tag-length-value triple and returns the tag and value.
func (d *Decoder) ReadTLV() (byte, []byte, error) {
	if d.off >= len(d.data) {
		return 0, nil, ErrTruncated
	}
	tag := d.data[d.off]
	d.off++
	n, err := d.readLength()
	if err != nil {
		return 0, nil, err
	}
	// Compared as unsigned so that a four-octet length past the top of a
	// 32-bit int, which reads as negative there, is truncation too.
	if uint(n) > uint(len(d.data)-d.off) {
		return 0, nil, ErrTruncated
	}
	val := d.data[d.off : d.off+n]
	d.off += n
	return tag, val, nil
}

// ReadInteger consumes an INTEGER and returns its unsigned big-endian value
// with the sign octet stripped, as a view into the decoder's input: the
// caller copies it if it must outlive or be changed apart from that input.
// Negative integers are rejected (PKCS#1 keys never contain them).
func (d *Decoder) ReadInteger() ([]byte, error) {
	tag, val, err := d.ReadTLV()
	if err != nil {
		return nil, err
	}
	if tag != TagInteger {
		return nil, fmt.Errorf("%w: got %#x, want INTEGER", ErrBadTag, tag)
	}
	if len(val) == 0 {
		return nil, fmt.Errorf("%w: empty integer", ErrBadLength)
	}
	if val[0]&0x80 != 0 {
		return nil, ErrNegative
	}
	if len(val) > 1 && val[0] == 0 && val[1]&0x80 == 0 {
		return nil, fmt.Errorf("%w: redundant integer padding", ErrNonMinimal)
	}
	if val[0] == 0 {
		val = val[1:]
	}
	return val, nil
}

// ReadSequence consumes a SEQUENCE and returns a sub-decoder over its body.
func (d *Decoder) ReadSequence() (*Decoder, error) {
	tag, val, err := d.ReadTLV()
	if err != nil {
		return nil, err
	}
	if tag != TagSequence {
		return nil, fmt.Errorf("%w: got %#x, want SEQUENCE", ErrBadTag, tag)
	}
	return NewDecoder(val), nil
}

// Finish verifies the decoder consumed everything.
func (d *Decoder) Finish() error {
	if !d.Empty() {
		return fmt.Errorf("%w: %d bytes", ErrTrailingData, d.Remaining())
	}
	return nil
}
