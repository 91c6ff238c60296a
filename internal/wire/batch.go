package wire

import (
	"fmt"

	"locsvc/internal/msg"
)

// batchMagic is the first byte of a batch frame. It is chosen far above
// wireVersion and reserved forever: the envelope version byte will never
// reach it (a version bump that close to 0xB7 must skip it), so a receiver
// can tell the two frame kinds apart from the first octet alone.
const batchMagic = 0xB7

// batchElemMin is the smallest wire footprint of one batched envelope: a
// 12-byte minimal legacy frame (version, tag, empty-From length byte,
// CorrID, flags) plus its one-byte length prefix. The batch count guard
// uses it to reject impossible counts before allocating.
const batchElemMin = 13

// IsBatch reports whether data starts like a batch frame. A false return
// means the datagram is (at most) a single legacy envelope frame.
func IsBatch(data []byte) bool {
	return len(data) > 0 && data[0] == batchMagic
}

// DecodeBatch deserializes a batch datagram into its envelopes. A datagram
// that is not a batch frame is decoded as a single legacy envelope, so
// receivers can route every datagram through this one entry point. Like
// Decode, the whole datagram either parses exactly or is an error: a bad
// count, a truncated inner envelope and trailing bytes are all rejected.
func DecodeBatch(data []byte) ([]msg.Envelope, error) {
	if !IsBatch(data) {
		env, err := Decode(data)
		if err != nil {
			return nil, err
		}
		return []msg.Envelope{env}, nil
	}
	if len(data) < 2 {
		return nil, fmt.Errorf("wire: decoding batch: %d-byte datagram is shorter than the header", len(data))
	}
	if data[1] != wireVersion {
		return nil, fmt.Errorf("wire: decoding batch: unsupported wire version %d (have %d)", data[1], wireVersion)
	}
	r := reader{data: data, off: 2}
	count := r.length(batchElemMin)
	if r.err != nil {
		return nil, fmt.Errorf("wire: decoding batch header: %w", r.err)
	}
	if count < 2 {
		return nil, fmt.Errorf("wire: decoding batch: count %d (a batch carries at least 2 envelopes)", count)
	}
	envs := make([]msg.Envelope, 0, count)
	for i := 0; i < count; i++ {
		n := r.length(1)
		frame := r.take(n)
		if r.err != nil {
			return nil, fmt.Errorf("wire: decoding batch envelope %d/%d: %w", i+1, count, r.err)
		}
		env, err := Decode(frame)
		if err != nil {
			return nil, fmt.Errorf("wire: decoding batch envelope %d/%d: %w", i+1, count, err)
		}
		envs = append(envs, env)
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("wire: decoding batch: %d trailing bytes", len(data)-r.off)
	}
	return envs, nil
}

// uvarintLen returns the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// ---------------------------------------------------------------------------
// BatchBuilder

// BatchBuilder accumulates pre-encoded envelope frames and flushes them as
// one datagram. It owns the frame format so transports only hold flush
// policy (size cap, count cap, flush when idle); the builder guarantees the
// 1-envelope == legacy frame rule. Builders are not safe for concurrent
// use — the transport's coalescer serializes access per destination.
type BatchBuilder struct {
	items []byte // length-prefixed frames, back to back
	count int
	first int // byte length of the first frame, without its prefix
}

// Add appends one encoded envelope frame (the output of AppendEncode).
func (b *BatchBuilder) Add(frame []byte) {
	if b.count == 0 {
		b.first = len(frame)
	}
	b.items = appendUvarint(b.items, uint64(len(frame)))
	b.items = append(b.items, frame...)
	b.count++
}

// Count returns the number of frames added since the last Reset.
func (b *BatchBuilder) Count() int { return b.count }

// SizeWith returns the flush size if one more frame of frameLen bytes were
// added — the coalescer's pre-flight check against the datagram limit.
func (b *BatchBuilder) SizeWith(frameLen int) int {
	if b.count == 0 {
		return frameLen
	}
	return 2 + uvarintLen(uint64(b.count+1)) + len(b.items) + uvarintLen(uint64(frameLen)) + frameLen
}

// AppendTo appends the flush bytes to dst: nothing for an empty builder, a
// legacy frame for one envelope, a batch frame otherwise.
func (b *BatchBuilder) AppendTo(dst []byte) []byte {
	switch b.count {
	case 0:
		return dst
	case 1:
		pfx := uvarintLen(uint64(b.first))
		return append(dst, b.items[pfx:]...)
	}
	dst = append(dst, batchMagic, wireVersion)
	dst = appendUvarint(dst, uint64(b.count))
	return append(dst, b.items...)
}

// Reset empties the builder, retaining its buffer.
func (b *BatchBuilder) Reset() {
	b.items = b.items[:0]
	b.count = 0
	b.first = 0
}
