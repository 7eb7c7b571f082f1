// Package ckpt is the byte codec of the governor stack's state
// checkpoints. A checkpoint must restore a runtime to the exact bits it
// held, so the format has no text and no rounding: every integer is a
// fixed-width little-endian word and every float travels as its IEEE-754
// bits. Fixed widths also make the encoding canonical — a blob that
// decodes re-encodes to the same bytes — which is what lets tests compare
// whole states with bytes.Equal.
//
// A blob is
//
//	'J' kind version | fields ... | CRC-32 (IEEE) of everything before it
//
// The kind byte names the layer that wrote the blob and the version byte
// its field list; Open rejects a blob whose checksum, kind or length is
// off before a single field is read, so a truncated or bit-flipped
// checkpoint never reaches the state it would corrupt.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

const (
	magic     = 'J'
	headerLen = 3
	sumLen    = 4
)

// ErrCorrupt is wrapped by every decoding failure.
var ErrCorrupt = errors.New("ckpt: corrupt checkpoint")

// Enc appends fields to a blob under construction.
type Enc struct {
	buf   []byte
	start int // offset of this blob's header in buf
}

// NewEnc starts a blob of the given kind and version, appending to dst
// (which may be nil, or a buffer being reused).
func NewEnc(dst []byte, kind, version byte) *Enc {
	return &Enc{buf: append(dst, magic, kind, version), start: len(dst)}
}

// Uint appends an unsigned word.
func (e *Enc) Uint(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// Int appends a signed word.
func (e *Enc) Int(v int) { e.Uint(uint64(int64(v))) }

// Float appends a float's IEEE-754 bits (NaN payloads included).
func (e *Enc) Float(v float64) { e.Uint(math.Float64bits(v)) }

// Bool appends one byte, 0 or 1.
func (e *Enc) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// Floats appends a length-prefixed float slice.
func (e *Enc) Floats(v []float64) {
	e.Int(len(v))
	for _, x := range v {
		e.Float(x)
	}
}

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.Int(len(s))
	e.buf = append(e.buf, s...)
}

// Seal appends the checksum and returns the buffer, blob included.
func (e *Enc) Seal() []byte {
	sum := crc32.ChecksumIEEE(e.buf[e.start:])
	return binary.LittleEndian.AppendUint32(e.buf, sum)
}

// Dec reads the fields of an opened blob. The first failure sticks:
// every later read returns a zero value, so a decoder reads its whole
// field list and checks Close once.
type Dec struct {
	buf     []byte
	err     error
	version byte
}

// Open verifies a blob's frame — length, magic, kind and checksum — and
// returns a decoder over its fields.
func Open(blob []byte, kind byte) (*Dec, error) {
	if len(blob) < headerLen+sumLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than an empty blob", ErrCorrupt, len(blob))
	}
	body, sum := blob[:len(blob)-sumLen], binary.LittleEndian.Uint32(blob[len(blob)-sumLen:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if body[0] != magic || body[1] != kind {
		return nil, fmt.Errorf("%w: header %q, want %q", ErrCorrupt, body[:2], []byte{magic, kind})
	}
	return &Dec{buf: body[headerLen:], version: body[2]}, nil
}

// Version is the blob's version byte: its writer's field list, which a
// layer nested in the blob may follow too.
func (d *Dec) Version() byte { return d.version }

// Fail records a semantic decoding error (a value out of the range the
// restoring layer accepts) unless an earlier one already stuck.
func (d *Dec) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// Err reports the first failure so far.
func (d *Dec) Err() error { return d.err }

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf) {
		d.Fail("field of %d bytes runs past the end", n)
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

// Uint reads an unsigned word.
func (d *Dec) Uint() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int reads a signed word.
func (d *Dec) Int() int { return int(int64(d.Uint())) }

// Count reads a non-negative integer no larger than max: a length, an
// index bound or a tally the caller is about to trust.
func (d *Dec) Count(max int) int {
	n := d.Int()
	if n < 0 || n > max {
		d.Fail("count %d outside [0,%d]", n, max)
		return 0
	}
	return n
}

// Float reads a float from its IEEE-754 bits.
func (d *Dec) Float() float64 { return math.Float64frombits(d.Uint()) }

// Bool reads one byte, which must be 0 or 1.
func (d *Dec) Bool() bool {
	b := d.take(1)
	if b == nil {
		return false
	}
	if b[0] > 1 {
		d.Fail("boolean byte %#x", b[0])
	}
	return b[0] == 1
}

// Floats reads a float slice of at most max elements into dst[:0].
func (d *Dec) Floats(dst []float64, max int) []float64 {
	n := d.Count(max)
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, d.Float())
	}
	return dst
}

// String reads a string of at most max bytes.
func (d *Dec) String(max int) string { return string(d.take(d.Count(max))) }

// Close reports the first failure, or leftover bytes: a blob longer than
// its field list was not written by this version of the layer.
func (d *Dec) Close() error {
	if d.err == nil && len(d.buf) != 0 {
		d.Fail("%d trailing bytes", len(d.buf))
	}
	return d.err
}
