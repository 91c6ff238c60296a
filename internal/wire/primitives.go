package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// Decode errors. Every malformed datagram maps onto one of these (wrapped
// with the message tag by Decode); none of them panic, which FuzzDecode
// enforces.
var (
	errTruncated = errors.New("truncated datagram")
	errLength    = errors.New("length prefix exceeds datagram size")
	errBool      = errors.New("invalid boolean byte")
)

// ---------------------------------------------------------------------------
// Append-style encoders. All of them extend dst in place and only allocate
// when it lacks capacity.

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func appendI64(dst []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}

func appendInt(dst []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(int64(v)))
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// stringLen is the length appendString gives s.
func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// appendTime encodes t as a UTC instant: Unix seconds plus nanoseconds.
// Monotonic readings and zone identity are dropped (see the package doc).
func appendTime(dst []byte, t time.Time) []byte {
	dst = appendI64(dst, t.Unix())
	return binary.LittleEndian.AppendUint32(dst, uint32(t.Nanosecond()))
}

// ---------------------------------------------------------------------------
// reader consumes a datagram front to back with a sticky error: after the
// first failure every subsequent read returns a zero value, so payload
// decoders can run straight-line without per-field error checks.

type reader struct {
	data []byte
	off  int
	err  error
}

// fail records the first error.
func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// remaining returns the unread byte count.
func (r *reader) remaining() int { return len(r.data) - r.off }

// take consumes n bytes, or fails with errTruncated.
func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.remaining() < n {
		r.fail(errTruncated)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) boolean() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(errBool)
		return false
	}
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) i64() int64 { return int64(r.u64()) }

func (r *reader) integer() int { return int(r.i64()) }

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail(fmt.Errorf("%w: bad varint", errTruncated))
		return 0
	}
	r.off += n
	return v
}

// length reads a uvarint length prefix for elements of at least elemSize
// bytes each, rejecting counts that cannot fit in the remaining datagram.
// This bounds every allocation a malformed datagram can cause to the
// datagram's own size.
func (r *reader) length(elemSize int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(r.remaining()/elemSize) {
		r.fail(errLength)
		return 0
	}
	return int(v)
}

// str reads a length-prefixed string, copying it out of the datagram.
func (r *reader) str() string {
	n := r.length(1)
	if r.err != nil || n == 0 {
		return ""
	}
	return string(r.take(n))
}

// timestamp reads a UTC instant.
func (r *reader) timestamp() time.Time {
	sec := r.i64()
	b := r.take(4)
	if r.err != nil {
		return time.Time{}
	}
	nsec := binary.LittleEndian.Uint32(b)
	return time.Unix(sec, int64(nsec)).UTC()
}
