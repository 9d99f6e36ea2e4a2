package der

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAppendLengthShortForm(t *testing.T) {
	for _, n := range []int{0, 1, 0x7F} {
		got := AppendLength(nil, n)
		if len(got) != 1 || got[0] != byte(n) {
			t.Errorf("AppendLength(%d) = %x", n, got)
		}
	}
}

func TestAppendLengthLongForm(t *testing.T) {
	tests := []struct {
		n    int
		want []byte
	}{
		{0x80, []byte{0x81, 0x80}},
		{0xFF, []byte{0x81, 0xFF}},
		{0x100, []byte{0x82, 0x01, 0x00}},
		{0x10000, []byte{0x83, 0x01, 0x00, 0x00}},
	}
	for _, tt := range tests {
		got := AppendLength(nil, tt.n)
		if !bytes.Equal(got, tt.want) {
			t.Errorf("AppendLength(%#x) = %x, want %x", tt.n, got, tt.want)
		}
	}
}

func TestAppendInteger(t *testing.T) {
	tests := []struct {
		val  []byte
		want []byte
	}{
		{nil, []byte{0x02, 0x01, 0x00}},
		{[]byte{0x00}, []byte{0x02, 0x01, 0x00}},
		{[]byte{0x01}, []byte{0x02, 0x01, 0x01}},
		{[]byte{0x7F}, []byte{0x02, 0x01, 0x7F}},
		{[]byte{0x80}, []byte{0x02, 0x02, 0x00, 0x80}},       // sign octet
		{[]byte{0x00, 0x00, 0x05}, []byte{0x02, 0x01, 0x05}}, // strip zeros
		{[]byte{0x01, 0x02}, []byte{0x02, 0x02, 0x01, 0x02}},
	}
	for _, tt := range tests {
		got := AppendInteger(nil, tt.val)
		if !bytes.Equal(got, tt.want) {
			t.Errorf("AppendInteger(%x) = %x, want %x", tt.val, got, tt.want)
		}
	}
}

func TestSequenceRoundTrip(t *testing.T) {
	var body []byte
	body = AppendInteger(body, []byte{0x42})
	body = AppendInteger(body, []byte{0xDE, 0xAD})
	seq := AppendSequence(nil, body)

	d := NewDecoder(seq)
	inner, err := d.ReadSequence()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	v1, err := inner.ReadInteger()
	if err != nil || !bytes.Equal(v1, []byte{0x42}) {
		t.Fatalf("v1 = %x, %v", v1, err)
	}
	v2, err := inner.ReadInteger()
	if err != nil || !bytes.Equal(v2, []byte{0xDE, 0xAD}) {
		t.Fatalf("v2 = %x, %v", v2, err)
	}
	if err := inner.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"tag only", []byte{0x02}, ErrTruncated},
		{"value truncated", []byte{0x02, 0x05, 0x01}, ErrTruncated},
		{"wrong tag for int", []byte{0x30, 0x01, 0x00}, ErrBadTag},
		{"negative int", []byte{0x02, 0x01, 0x80}, ErrNegative},
		{"empty int", []byte{0x02, 0x00}, ErrBadLength},
		{"redundant pad", []byte{0x02, 0x02, 0x00, 0x05}, ErrNonMinimal},
		{"nonminimal length", []byte{0x02, 0x81, 0x01, 0x05}, ErrNonMinimal},
		{"absurd length octets", []byte{0x02, 0x85, 1, 1, 1, 1, 1}, ErrBadLength},
		{"length past a 32-bit int", []byte{0x02, 0x84, 0x80, 0, 0, 0, 1}, ErrTruncated},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewDecoder(tt.data).ReadInteger()
			if !errors.Is(err, tt.want) {
				t.Fatalf("got %v, want %v", err, tt.want)
			}
		})
	}
}

// ReadInteger returns a view into the decoder's input, sign octet stripped,
// not a copy.
func TestReadIntegerReturnsView(t *testing.T) {
	enc := AppendInteger(nil, []byte{0x80, 0x01})
	got, err := NewDecoder(enc).ReadInteger()
	if err != nil || !bytes.Equal(got, []byte{0x80, 0x01}) {
		t.Fatalf("ReadInteger = %x, %v", got, err)
	}
	if &got[0] != &enc[len(enc)-2] {
		t.Fatal("ReadInteger copied its value instead of returning a view")
	}
}

func TestReadSequenceWrongTag(t *testing.T) {
	_, err := NewDecoder([]byte{0x02, 0x01, 0x00}).ReadSequence()
	if !errors.Is(err, ErrBadTag) {
		t.Fatalf("got %v, want ErrBadTag", err)
	}
}

func TestFinishTrailingData(t *testing.T) {
	d := NewDecoder([]byte{0x02, 0x01, 0x00, 0xFF})
	if _, err := d.ReadInteger(); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); !errors.Is(err, ErrTrailingData) {
		t.Fatalf("got %v, want ErrTrailingData", err)
	}
	if d.Remaining() != 1 {
		t.Fatal("Remaining wrong")
	}
}

func TestLargeValueRoundTrip(t *testing.T) {
	val := bytes.Repeat([]byte{0xA7}, 300) // forces long-form length
	enc := AppendInteger(nil, val)
	got, err := NewDecoder(enc).ReadInteger()
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("round trip failed: %v", err)
	}
}

// Property: integer encode/decode round-trips arbitrary unsigned values.
func TestQuickIntegerRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		val := make([]byte, n)
		rng.Read(val)
		enc := AppendInteger(nil, val)
		dec, err := NewDecoder(enc).ReadInteger()
		if err != nil {
			return false
		}
		// Compare stripping leading zeros from the input.
		for len(val) > 0 && val[0] == 0 {
			val = val[1:]
		}
		if len(val) == 0 {
			return len(dec) == 0
		}
		return bytes.Equal(dec, val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: nested sequences of random integers round-trip.
func TestQuickSequenceRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		count := 1 + rng.Intn(10)
		vals := make([][]byte, count)
		var body []byte
		for i := range vals {
			v := make([]byte, 1+rng.Intn(64))
			rng.Read(v)
			if v[0] == 0 {
				v[0] = 1
			}
			vals[i] = v
			body = AppendInteger(body, v)
		}
		seq := AppendSequence(nil, body)
		inner, err := NewDecoder(seq).ReadSequence()
		if err != nil {
			return false
		}
		for _, want := range vals {
			got, err := inner.ReadInteger()
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return inner.Finish() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
