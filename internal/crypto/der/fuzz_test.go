package der

import "testing"

// FuzzReadInteger ensures the decoder never panics and never reads outside
// its input on arbitrary bytes.
func FuzzReadInteger(f *testing.F) {
	f.Add([]byte{0x02, 0x01, 0x05})
	f.Add([]byte{0x02, 0x81, 0x80})
	f.Add([]byte{0x02, 0x82, 0xff, 0xff})
	f.Add([]byte{0x02, 0x84, 0x80, 0x00, 0x00, 0x00, 0x01})
	f.Add([]byte{0x30, 0x03, 0x02, 0x01, 0x00})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		for !d.Empty() {
			before := d.Remaining()
			if _, err := d.ReadInteger(); err != nil {
				break
			}
			if d.Remaining() >= before {
				t.Fatal("decoder did not make progress")
			}
		}
	})
}

// FuzzReadSequence exercises the nested path.
func FuzzReadSequence(f *testing.F) {
	f.Add(AppendSequence(nil, AppendInteger(nil, []byte{0x42})))
	f.Add([]byte{0x30, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		inner, err := d.ReadSequence()
		if err != nil {
			return
		}
		for !inner.Empty() {
			if _, _, err := inner.ReadTLV(); err != nil {
				break
			}
		}
	})
}
