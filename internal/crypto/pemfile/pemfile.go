// Package pemfile implements PEM armoring (RFC 1421-style) for the
// simulated private-key files. The armored text is the exact byte pattern
// the paper's scanner hunts for in the page cache: the "PEM-encoded private
// key file" is itself counted as a copy of the key.
package pemfile

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
)

const lineLength = 64

// The armor lines around a block's base64 body.
const (
	beginPrefix = "-----BEGIN "
	endPrefix   = "-----END "
	dashes      = "-----"
)

// Errors reported by the decoder.
var (
	ErrNoBegin    = errors.New("pemfile: BEGIN line not found")
	ErrNoEnd      = errors.New("pemfile: END line not found")
	ErrTypeMangle = errors.New("pemfile: BEGIN/END type mismatch")
	ErrBadBase64  = errors.New("pemfile: invalid base64 body")
)

// Encode wraps der in PEM armor with the given type label, e.g.
// "RSA PRIVATE KEY". The armor is built in one buffer of its exact size,
// which the caller owns: no other copy of the encoded key is left behind.
func Encode(blockType string, der []byte) []byte {
	enc := base64.StdEncoding.EncodedLen(len(der))
	lines := (enc + lineLength - 1) / lineLength
	// The BEGIN and END lines, then the base64 text and a newline per line.
	armor := len(beginPrefix) + len(endPrefix) + 2*(len(blockType)+len(dashes)+1)
	out := make([]byte, 0, armor+enc+lines)
	out = append(append(append(out, beginPrefix...), blockType...), dashes+"\n"...)
	// Each full line holds the base64 of 48 bytes, a whole number of
	// 3-byte groups, so encoding line by line gives the same text as
	// encoding all of der at once and breaking it every 64 characters.
	const lineBytes = lineLength / 4 * 3
	for len(der) > 0 {
		n := min(len(der), lineBytes)
		out = append(base64.StdEncoding.AppendEncode(out, der[:n]), '\n')
		der = der[n:]
	}
	return append(append(append(out, endPrefix...), blockType...), dashes+"\n"...)
}

// Decode parses the first PEM block in data, returning its type and DER
// body. The body is decoded straight from data into one buffer of its
// own, which the caller owns; on error no buffer is returned.
//
//memlint:source result=1
func Decode(data []byte) (blockType string, der []byte, err error) {
	beginIdx := bytes.Index(data, []byte(beginPrefix))
	if beginIdx < 0 {
		return "", nil, ErrNoBegin
	}
	rest := data[beginIdx+len(beginPrefix):]
	typeEnd := bytes.Index(rest, []byte(dashes))
	if typeEnd < 0 {
		return "", nil, ErrNoBegin
	}
	typ := rest[:typeEnd]
	body := rest[typeEnd+len(dashes):]
	endIdx := bytes.Index(body, []byte(endPrefix))
	if endIdx < 0 {
		return "", nil, ErrNoEnd
	}
	if tail := body[endIdx+len(endPrefix):]; !bytes.HasPrefix(tail, typ) || !bytes.HasPrefix(tail[len(typ):], []byte(dashes)) {
		return "", nil, fmt.Errorf("%w: want %q", ErrTypeMangle, endPrefix+string(typ)+dashes)
	}
	der, err = decodeBody(body[:endIdx])
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadBase64, err)
	}
	return string(typ), der, nil
}

// decodeBody base64-decodes a block's body, skipping the line breaks,
// spaces and tabs between its characters, exactly as decoding the body
// with them removed would. Each run of characters between spaces is
// decoded straight from body, whole quanta at a time; a quantum that a
// space splits is joined in q, cleared before returning. Once a quantum
// ends in padding, no character may follow. On error the partly decoded
// buffer is cleared and dropped.
func decodeBody(body []byte) ([]byte, error) {
	out := make([]byte, base64.StdEncoding.DecodedLen(len(body)))
	var q [4]byte
	defer clear(q[:])
	w, k, padded := 0, 0, false // bytes decoded; characters held in q
	var err error
	put := func(src []byte) { // decodes src unless an error has happened
		switch {
		case err != nil:
		case padded:
			err = base64.CorruptInputError(w)
		default:
			var n int
			n, err = base64.StdEncoding.Decode(out[w:], src)
			w += n
			padded = n < len(src)/4*3
		}
	}
	for i := 0; i < len(body) && err == nil; {
		if isSpace(body[i]) {
			i++
			continue
		}
		j := i + 1
		for j < len(body) && !isSpace(body[j]) {
			j++
		}
		run := body[i:j]
		i = j
		if k > 0 {
			n := copy(q[k:], run)
			if k, run = k+n, run[n:]; k < len(q) {
				continue
			}
			put(q[:])
		}
		whole := len(run) &^ 3
		if whole > 0 {
			put(run[:whole])
		}
		k = copy(q[:], run[whole:])
	}
	if k > 0 {
		put(q[:k]) // an unfinished quantum: always an error
	}
	if err != nil {
		clear(out)
		return nil, err
	}
	return out[:w], nil
}

// isSpace reports whether c is a character PEM lines may carry between
// base64 characters.
func isSpace(c byte) bool {
	return c == '\n' || c == '\r' || c == ' ' || c == '\t'
}
