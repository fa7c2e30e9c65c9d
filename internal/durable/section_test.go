package durable

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

func twoSections() []byte {
	buf := AppendSection([]byte("MAGIC123"), func(b []byte) []byte {
		b = AppendString(b, "first")
		return binary.AppendUvarint(b, 300)
	})
	return AppendSection(buf, func(b []byte) []byte { return AppendString(b, "second") })
}

// TestSectionRoundTrip: sections read back in order with their payloads
// intact, and a reader decodes exactly what the appenders wrote.
func TestSectionRoundTrip(t *testing.T) {
	data := twoSections()[len("MAGIC123"):]
	first, rest, err := ReadSection(data, "first")
	if err != nil {
		t.Fatal(err)
	}
	second, rest, err := ReadSection(rest, "second")
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after the last section", len(rest))
	}
	r := NewReader(first, "test")
	if s, n := r.Str(), r.Uvarint(); s != "first" || n != 300 || r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("first payload read %q, %d, err %v, %d left", s, n, r.Err(), r.Remaining())
	}
	if s := NewReader(second, "test").Str(); s != "second" {
		t.Fatalf("second payload read %q", s)
	}
	empty := AppendSection(nil, func(b []byte) []byte { return b })
	if payload, rest, err := ReadSection(empty, "empty"); err != nil || len(payload) != 0 || len(rest) != 0 {
		t.Fatalf("empty section: %d-byte payload, %d left, err %v", len(payload), len(rest), err)
	}
}

// TestSectionDamageDetected: a section cut at any offset or with any
// byte flipped — header or payload — fails its read, naming the
// section; it never yields a payload.
func TestSectionDamageDetected(t *testing.T) {
	full := AppendSection(nil, func(b []byte) []byte { return AppendString(b, "payload under test") })
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := ReadSection(full[:cut], "cut"); err == nil || !strings.Contains(err.Error(), "cut section") {
			t.Fatalf("cut at %d of %d: err %v", cut, len(full), err)
		}
	}
	for off := 0; off < len(full); off++ {
		bad := append([]byte(nil), full...)
		bad[off] ^= 0x40
		payload, _, err := ReadSection(bad, "flip")
		if err == nil {
			t.Fatalf("flip at %d read payload %q", off, payload)
		}
	}
	// An absurd length is refused before anything is sliced.
	huge := append([]byte(nil), full...)
	binary.LittleEndian.PutUint32(huge, 1<<31)
	if _, _, err := ReadSection(huge, "huge"); err == nil {
		t.Fatal("a 2 GiB length was accepted")
	}
}

// TestReaderFailuresStick: every overrun fails, the first failure is the
// one reported, and reads after it return zero values.
func TestReaderFailuresStick(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
		read    func(*Reader)
	}{
		{"truncated uvarint", []byte{0x80}, func(r *Reader) { r.Uvarint() }},
		{"truncated varint", []byte{0xff}, func(r *Reader) { r.Varint() }},
		{"string overrun", AppendString(nil, "abc")[:3], func(r *Reader) { r.Str() }},
		{"count overrun", binary.AppendUvarint(nil, 5), func(r *Reader) { r.Count() }},
		{"bytes overrun", []byte{1, 2}, func(r *Reader) { r.Bytes(3) }},
	} {
		r := NewReader(tc.payload, "test")
		tc.read(r)
		first := r.Err()
		if first == nil || !strings.HasPrefix(first.Error(), "test: ") {
			t.Fatalf("%s: err %v", tc.name, first)
		}
		if v := r.Uvarint(); v != 0 || r.Err() != first {
			t.Fatalf("%s: read after failure gave %d, err %v", tc.name, v, r.Err())
		}
		if s := r.Str(); s != "" || r.Bytes(0) != nil {
			t.Fatalf("%s: read after failure gave %q", tc.name, s)
		}
	}
	// Strings are copies: the payload can be reused once decoded.
	payload := AppendString(nil, "kept")
	r := NewReader(payload, "test")
	s := r.Str()
	copy(payload, bytes.Repeat([]byte{'x'}, len(payload)))
	if s != "kept" {
		t.Fatalf("decoded string aliased its payload: %q", s)
	}
}
