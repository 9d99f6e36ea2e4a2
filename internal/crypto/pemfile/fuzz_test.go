package pemfile

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// FuzzDecode ensures PEM parsing never panics, that Decode gives the same
// type, DER and error class as decodeReference, and that whatever it
// accepts re-encodes, as encodeReference would, to something it accepts
// again with the same payload.
func FuzzDecode(f *testing.F) {
	f.Add([]byte(Encode("RSA PRIVATE KEY", []byte("payload"))))
	f.Add([]byte("-----BEGIN X-----\n!!!\n-----END X-----\n"))
	f.Add([]byte("-----BEGIN "))
	f.Add([]byte("-----BEGIN A-----\r\n ZG F0\tYQ==\r\n-----END A-----"))
	f.Add([]byte("-----BEGIN A-----\nZGF0YQ==ZGF0\n-----END A-----\n"))
	f.Add([]byte("-----BEGIN A-----\nZGF0YQ\n-----END B-----\n"))
	f.Add([]byte("junk-----BEGIN A-----\nZGF\xff0YQ==\n-----END A-----x"))
	// A padded quantum at the end of one 64-character run with another
	// run after it, and a full run with nothing after it.
	f.Add([]byte("-----BEGIN A-----\n" + strings.Repeat("QUJD", 15) + "QQ==\nQUJD\n-----END A-----\n"))
	f.Add([]byte("-----BEGIN A-----\n" + strings.Repeat("QUJD", 15) + "QQ==\n-----END A-----\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, der, err := Decode(data)
		rtyp, rder, rerr := decodeReference(data)
		if errorClass(err) != errorClass(rerr) || typ != rtyp || !bytes.Equal(der, rder) {
			t.Fatalf("Decode = %q, %x, %v; reference %q, %x, %v", typ, der, err, rtyp, rder, rerr)
		}
		if err != nil {
			return
		}
		enc := Encode(typ, der)
		if want := encodeReference(typ, der); !bytes.Equal(enc, want) {
			t.Fatalf("Encode = %q, reference %q", enc, want)
		}
		typ2, der2, err := Decode(enc)
		if err != nil || typ2 != typ || !bytes.Equal(der2, der) {
			t.Fatalf("accepted block does not round-trip: %v", err)
		}
	})
}

// errorClass names the sentinel err wraps, or reports nil or an
// unclassified error.
func errorClass(err error) string {
	if err == nil {
		return "nil"
	}
	for _, s := range []error{ErrNoBegin, ErrNoEnd, ErrTypeMangle, ErrBadBase64} {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	return "unclassified: " + err.Error()
}

// decodeReference is the string-based decoder Decode replaced: it copies
// data into a string, strips the body's whitespace into a second string
// and decodes that whole.
func decodeReference(data []byte) (blockType string, der []byte, err error) {
	text := string(data)
	beginIdx := strings.Index(text, "-----BEGIN ")
	if beginIdx < 0 {
		return "", nil, ErrNoBegin
	}
	rest := text[beginIdx+len("-----BEGIN "):]
	typeEnd := strings.Index(rest, "-----")
	if typeEnd < 0 {
		return "", nil, ErrNoBegin
	}
	blockType = rest[:typeEnd]
	body := rest[typeEnd+len("-----"):]
	endMarker := "-----END " + blockType + "-----"
	endIdx := strings.Index(body, "-----END ")
	if endIdx < 0 {
		return "", nil, ErrNoEnd
	}
	if !strings.HasPrefix(body[endIdx:], endMarker) {
		return "", nil, fmt.Errorf("%w: want %q", ErrTypeMangle, endMarker)
	}
	b64 := strings.Map(func(r rune) rune {
		switch r {
		case '\n', '\r', ' ', '\t':
			return -1
		}
		return r
	}, body[:endIdx])
	der, err = base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadBase64, err)
	}
	return blockType, der, nil
}

// encodeReference is the strings.Builder encoder Encode replaced.
func encodeReference(blockType string, der []byte) []byte {
	var b strings.Builder
	b.WriteString("-----BEGIN ")
	b.WriteString(blockType)
	b.WriteString("-----\n")
	enc := base64.StdEncoding.EncodeToString(der)
	for len(enc) > lineLength {
		b.WriteString(enc[:lineLength])
		b.WriteByte('\n')
		enc = enc[lineLength:]
	}
	if len(enc) > 0 {
		b.WriteString(enc)
		b.WriteByte('\n')
	}
	b.WriteString("-----END ")
	b.WriteString(blockType)
	b.WriteString("-----\n")
	return []byte(b.String())
}
