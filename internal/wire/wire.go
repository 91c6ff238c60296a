// Package wire encodes protocol envelopes for datagram transports with a
// hand-rolled, versioned, length-delimited binary codec. It replaced the
// original encoding/gob format (BENCH_wire.json records the comparison):
// gob re-transmits type descriptors on every datagram, reflects over the
// message structs and allocates a fresh encoder per envelope, all of which
// this codec avoids — encoding appends
// into a caller-supplied (typically pooled) buffer with zero allocations,
// and decoding reads directly out of the receive buffer with no
// reflection.
//
// # Framing
//
// A datagram carries either one envelope (the legacy frame) or a batch of
// envelopes. The legacy frame:
//
//	offset 0  version  uint8   — wireVersion; receivers reject others
//	offset 1  tag      uint8   — msg.Tag of the payload type
//	          From     string  — sending node id
//	          CorrID   uint64  — call correlation id, 0 for one-way
//	          flags    uint8   — bit 0: Reply; bits 1-7 must be zero
//	          payload  ...     — per-message fields, in struct order
//
// Trailing bytes after the payload are an error: a datagram either parses
// exactly or is dropped.
//
// # Batch frame
//
// A batch coalesces N ≥ 2 envelopes into one datagram:
//
//	offset 0  magic    uint8   — batchMagic (0xB7), distinguishes batch
//	                             from legacy frames by the first octet
//	offset 1  version  uint8   — wireVersion; receivers reject others
//	          count    uvarint — number of envelopes, at least 2
//	          N ×     (uvarint byte length, then one full legacy frame)
//
// A batch of exactly one envelope is, by rule, encoded as a plain legacy
// frame — batching is invisible on the wire until there is something to
// coalesce, so batching and non-batching peers interoperate without
// negotiation. Decoding is all-or-nothing like the legacy frame: a bad
// count, a truncated inner envelope or trailing bytes reject the whole
// datagram. 0xB7 is reserved forever as the batch magic; wireVersion must
// never be assigned that value (see the versioning rules).
//
// # Interning
//
// Node and object identifiers recur on nearly every datagram, so the
// decoder routes them through a small lock-free intern table (intern.go):
// repeated ids share one string allocation. This is a decode-side
// optimization only — it changes nothing on the wire.
//
// # Primitive encodings
//
//   - bool: one byte, 0 or 1 (other values are a decode error)
//   - int, int64, uint64: fixed 8 bytes little-endian (ints two's
//     complement)
//   - float64: IEEE 754 bits, fixed 8 bytes little-endian (NaN and ±Inf
//     round-trip bit-exactly)
//   - string: uvarint byte length, then the raw bytes
//   - slices: uvarint element count, then the elements back to back
//   - time.Time: int64 Unix seconds + 4-byte little-endian nanoseconds.
//     Timestamps travel as UTC instants — monotonic readings and zone
//     identity are not preserved (the paper assumes synchronized GPS
//     time, so only the instant matters)
//
// Composite fields (geo.Point, core.Sighting, core.Area, msg.LeafInfo, …)
// are their fields in declaration order using the primitives above; they
// add no framing of their own.
//
// # Tag table
//
// The payload tag registry lives in package msg (msg.Tag, one constant per
// message type) so that adding a message is a one-file change next to the
// type definition. Tag values are frozen forever once assigned; see the
// registry comment in msg/tags.go.
//
// # Versioning rules
//
//   - Adding a new message type: assign the next free tag in msg/tags.go
//     and add its encode/decode pair in payload.go. Old receivers drop
//     envelopes with unknown tags (a decode error), which is the normal
//     UDP loss mode — no version bump needed.
//   - Adding, removing or reordering fields of an existing message, or
//     changing a primitive encoding: bump wireVersion. Receivers reject
//     datagrams from other versions outright, so a mixed-version
//     deployment partitions cleanly instead of mis-parsing. The batch
//     frame carries the same version byte (at offset 1, after the magic)
//     and follows the same rule: batch layout changes bump wireVersion.
//   - Tags and the version byte share the first two octets forever; any
//     future self-describing format must keep them addressable.
//   - wireVersion must never be assigned batchMagic (0xB7): the first
//     octet alone distinguishes legacy frames from batch frames.
//
// # Version history
//
//   - v1: initial binary format, replacing gob (tags 1–33).
//   - v2: resilience fields. UpdateReq and RegisterReq gained a trailing
//     Seq uint64 (per-sender retry sequence number); PosQueryRes gained a
//     trailing Partial bool; RangeQuerySubRes gained trailing
//     Unreachable []NodeID + UnreachableSize float64; RangeQueryRes and
//     NeighborQueryRes gained trailing Partial bool + Unreachable
//     []NodeID. New fields append after the v1 fields in struct
//     declaration order, like any other field.
//   - v3: leaf replication. DiagRes gained a replication snapshot
//     (presence-bool prefixed, like Tier) between Tier and PipelineOps,
//     and the replication messages took tags 34–39: the primary's stream
//     and its ack, chunked run transfer and promotion. Gone since v9.
//   - v4: one handover algorithm. HandoverReq lost Direct bool (the
//     leaf-to-leaf cache shortcut is gone; every handover climbs to the
//     lowest common ancestor), RemovePath lost HasNewPos bool + NewPos
//     Point (the shortcut's old-branch prune was their only sender), and
//     DiagRes lost Epoch uint64 (always 0 since the sighting store's
//     shard count became fixed at construction).
//   - v5: ack floors. UpdateReq and RegisterReq gained a trailing
//     Floor uint64 after Seq (see Retry idempotency).
//   - v6: batched path messages. PathBatch (tag 40) carries a server's
//     path messages to its parent: a count, then per message Remove
//     bool, OID, Leaf LeafInfo and SightingT, a removal's Leaf empty.
//     CreatePath and RemovePath (tags 4 and 5) are retired: every path
//     message travels in a PathBatch, and a sender splits a batch before
//     its envelope outgrows a datagram (PathBatchPrefix).
//   - v7: registration refusals. RegisterFailed gained a trailing
//     Refused ErrorRes (Code and Text strings, both empty for an
//     accuracy failure): a leaf answers a malformed, store-refused or
//     no-longer-awaited registration with it under the request's OpID,
//     where it used to send a bare ErrorRes the client could not match.
//   - v8: standby redirects. UpdateRes gained a trailing redirect bool:
//     a replication standby's answer, nothing applied, which the client
//     re-sends to NewAgent instead of taking it for a handover's.
//   - v9: no replication. UpdateRes lost its trailing redirect bool and
//     DiagRes its replication snapshot; ReplAppend, ReplAck, RunFetch,
//     RunFetchRes, Promote and PromoteRes are gone and their tags 34–39
//     retired: a killed leaf restarts from its own logs, and no leaf has a
//     standby.
//   - v10: one recovery path. DiagRes's Tier snapshot lost its leading
//     Warm bool: a tiered leaf replays its log before it serves, so there
//     is no warm-up left to report.
//
// # Retry idempotency
//
// The transports retry idempotent calls on timeout, so a receiver may see
// the same logical request twice (the original reply was lost, not the
// request). Two rules make that safe on this wire format:
//
//   - Requests with side effects carry a Seq drawn from one monotonic
//     per-sender counter (UpdateReq.Seq, RegisterReq.Seq — the scheme
//     EventCount.Seq introduced) and an ack floor (Floor): the lowest Seq
//     the sender still awaits a reply for, from any receiver. Seq 0 means
//     unstamped: the receiver applies the request unconditionally.
//     Receivers keep each sender's replies from the highest floor seen
//     up, re-send the remembered reply to a duplicate, and apply nothing
//     below the floor.
//   - A retried attempt re-sends the SAME Seq and Floor (and, for
//     registrations, the same Origin.OpID). A Seq is never reused, and a
//     restarted sender starts above its previous incarnation's Seqs (the
//     client seeds its counter from the clock) so the old floor does not
//     cover its new requests.
//
// Read-only queries (pos/range/neighbor/diag) carry no Seq; retrying them
// needs no dedupe. Their responses instead carry the Partial/Unreachable
// markers above so a degraded answer is distinguishable from a complete
// one.
package wire

import (
	"fmt"
	"sync"

	"locsvc/internal/msg"
)

// wireVersion is the format generation of this codec. Bump it whenever an
// existing message's field layout or a primitive encoding changes. See the
// version history in the package doc.
const wireVersion = 10

// maxPooledBuf bounds the capacity of buffers returned to the pool, so a
// rare huge envelope (an oversize range-query result rejected by the
// transport's datagram guard still gets fully encoded first) does not pin
// its buffer for the lifetime of the pool entry.
const maxPooledBuf = 1 << 20

// bufPool recycles encode buffers — the same recycled-buffer discipline as
// the WAL encoder's batch buffers. Callers Get a buffer, append an
// envelope into it, transmit, and Put it back.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// GetBuffer returns a pooled encode buffer of zero length. Pass it (or any
// other byte slice) to AppendEncode and return it with PutBuffer when the
// encoded bytes are no longer referenced.
func GetBuffer() *[]byte {
	return bufPool.Get().(*[]byte)
}

// PutBuffer recycles a buffer obtained from GetBuffer. Oversized buffers
// are dropped instead of pooled.
func PutBuffer(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// envelope flag bits.
const flagReply = 1 << 0

// Encode serializes an envelope into a fresh buffer. It is the
// convenience form of AppendEncode for callers without a buffer to reuse.
func Encode(env msg.Envelope) ([]byte, error) {
	return AppendEncode(nil, env)
}

// AppendEncode appends env's wire encoding to dst and returns the extended
// slice. It allocates only when dst lacks capacity; with a pooled buffer
// the steady-state cost is zero allocations. The only error is an
// unregistered payload type.
func AppendEncode(dst []byte, env msg.Envelope) ([]byte, error) {
	mark := len(dst)
	// The tag byte at mark+1 is patched after the payload type switch
	// identifies the message; this keeps encoding a single type switch.
	dst = append(dst, wireVersion, 0)
	dst = appendString(dst, string(env.From))
	dst = appendU64(dst, env.CorrID)
	var flags byte
	if env.Reply {
		flags |= flagReply
	}
	dst = append(dst, flags)
	dst, tag, ok := appendPayload(dst, env.Msg)
	if !ok {
		return dst[:mark], fmt.Errorf("wire: encoding envelope: unregistered message type %T", env.Msg)
	}
	dst[mark+1] = byte(tag)
	return dst, nil
}

// Decode deserializes an envelope. The decoded envelope shares no memory
// with data: strings and slices are copied out, so the receive buffer can
// be recycled as soon as Decode returns.
func Decode(data []byte) (msg.Envelope, error) {
	if len(data) < 2 {
		return msg.Envelope{}, fmt.Errorf("wire: decoding envelope: %d-byte datagram is shorter than the header", len(data))
	}
	if data[0] != wireVersion {
		return msg.Envelope{}, fmt.Errorf("wire: decoding envelope: unsupported wire version %d (have %d)", data[0], wireVersion)
	}
	tag := msg.Tag(data[1])
	r := reader{data: data, off: 2}
	var env msg.Envelope
	env.From = r.nodeID()
	env.CorrID = r.u64()
	flags := r.u8()
	if r.err == nil && flags&^byte(flagReply) != 0 {
		return msg.Envelope{}, fmt.Errorf("wire: decoding envelope: reserved flag bits %#x set", flags)
	}
	env.Reply = flags&flagReply != 0
	m, known := decodePayload(&r, tag)
	if !known {
		return msg.Envelope{}, fmt.Errorf("wire: decoding envelope: unknown message tag %d", byte(tag))
	}
	if r.err != nil {
		return msg.Envelope{}, fmt.Errorf("wire: decoding %s envelope: %w", tag, r.err)
	}
	if r.off != len(data) {
		return msg.Envelope{}, fmt.Errorf("wire: decoding %s envelope: %d trailing bytes", tag, len(data)-r.off)
	}
	env.Msg = m
	return env, nil
}
