package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Every binary snapshot file the system writes — a stripe snapshot of
// the social store, the monitor's warm-restart state — is a magic
// followed by framed sections, each checked on its own so damage is
// attributed to the section it hit:
//
//	uint32  payload length (little-endian)
//	uint32  CRC-32C (Castagnoli) of the payload (little-endian)
//	payload
//
// The frame is the WAL record frame; what a payload holds belongs to
// the layer that wrote it. Payloads are usually uvarint-prefixed
// strings and varints, read back through a Reader.

// SectionHeaderLen is the byte length of a section frame header.
const SectionHeaderLen = 8

// maxSectionLen refuses absurd payload lengths before allocating.
const maxSectionLen = 1 << 30

// AppendSection appends one framed section whose payload body appends.
func AppendSection(buf []byte, body func([]byte) []byte) []byte {
	start := len(buf)
	buf = body(append(buf, make([]byte, SectionHeaderLen)...))
	payload := buf[start+SectionHeaderLen:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf
}

// ReadSection splits one framed section off data, verifying its length
// and checksum; name labels the section in the error.
func ReadSection(data []byte, name string) (payload, rest []byte, err error) {
	if len(data) < SectionHeaderLen {
		return nil, nil, fmt.Errorf("%s section header truncated to %d bytes", name, len(data))
	}
	n := binary.LittleEndian.Uint32(data)
	if n > maxSectionLen || int(n) > len(data)-SectionHeaderLen {
		return nil, nil, fmt.Errorf("%s section length %d exceeds the %d bytes left", name, n, len(data)-SectionHeaderLen)
	}
	payload = data[SectionHeaderLen : SectionHeaderLen+int(n)]
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(data[4:]); got != want {
		return nil, nil, fmt.Errorf("%s section checksum %08x, want %08x", name, got, want)
	}
	return payload, data[SectionHeaderLen+int(n):], nil
}

// AppendString appends s as a uvarint length and its bytes.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// Reader is a bounds-checked cursor over a section payload. All reads
// after the first failure keep failing, so decode loops need no
// per-read error checks — one Err test at each structural boundary.
// The reader makes one string copy of the whole payload up front:
// every decoded string is a substring of it, so a payload of tens of
// thousands of strings costs one allocation for all of them.
type Reader struct {
	b    []byte
	s    string
	off  int
	err  error
	what string
}

// NewReader reads payload; what prefixes its error messages.
func NewReader(payload []byte, what string) *Reader {
	return &Reader{b: payload, s: string(payload), what: what}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread payload bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Fail records a structural failure the caller detected; the first
// failure sticks.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%s: %s", r.what, fmt.Sprintf(format, args...))
	}
}

// Uvarint reads one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	// Single-byte values dominate (posting gaps, small lengths); the
	// fast path skips binary.Uvarint's loop for them.
	if r.off < len(r.b) {
		if b := r.b[r.off]; b < 0x80 {
			r.off++
			return uint64(b)
		}
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.Fail("truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Varint reads one signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.Fail("truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Count reads a uvarint element count, failing when it exceeds the
// unread bytes — every element costs at least one — so a damaged count
// is caught before the caller allocates for it.
func (r *Reader) Count() int {
	n := r.Uvarint()
	if r.err == nil && n > uint64(r.Remaining()) {
		r.Fail("count %d exceeds the %d bytes left", n, r.Remaining())
		return 0
	}
	return int(n)
}

// Str reads one string AppendString wrote.
func (r *Reader) Str() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.Remaining()) {
		r.Fail("%d string bytes wanted at offset %d, %d remain", n, r.off, r.Remaining())
		return ""
	}
	out := r.s[r.off : r.off+int(n)]
	r.off += int(n)
	return out
}

// Bytes reads the next n raw bytes.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Remaining() {
		r.Fail("%d bytes wanted at offset %d, %d remain", n, r.off, r.Remaining())
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}
