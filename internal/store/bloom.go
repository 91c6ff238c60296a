package store

import (
	"encoding/binary"
	"fmt"
)

// bloomFilter is the per-run membership filter of the tiered sighting
// store: a point lookup probes it before touching a run's records, so a
// run that cannot contain the key is skipped with zero I/O. False
// positives cost one wasted sparse-index probe; false negatives never
// happen, which is what makes the newest-to-oldest run walk correct.
//
// The implementation is a classic partitioned-free bloom filter over one
// bit array, with k probe positions derived from a single 64-bit FNV-1a
// hash by double hashing (g_i = h1 + i*h2) — one hash computation per key,
// as in the LevelDB family.
type bloomFilter struct {
	bits  []byte
	nbits uint64
	k     uint32
}

// bloomK picks the probe count for a bits-per-key budget: ln(2) * b,
// clamped to [1, 30] like the LevelDB heuristic.
func bloomK(bitsPerKey int) uint32 {
	k := uint32(float64(bitsPerKey) * 0.69)
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	return k
}

// newBloomFilter sizes a filter for n keys at bitsPerKey bits each.
func newBloomFilter(n, bitsPerKey int) *bloomFilter {
	if n < 1 {
		n = 1
	}
	if bitsPerKey < 1 {
		bitsPerKey = 1
	}
	nbits := uint64(n) * uint64(bitsPerKey)
	if nbits < 64 {
		nbits = 64
	}
	return &bloomFilter{
		bits:  make([]byte, (nbits+7)/8),
		nbits: nbits,
		k:     bloomK(bitsPerKey),
	}
}

// bloomHash is 64-bit FNV-1a over the key bytes.
func bloomHash(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// bloomDelta derives the double-hashing stride from the base hash. The
// rotation keeps the stride independent enough of h1 that probe sequences
// of distinct keys diverge.
func bloomDelta(h uint64) uint64 {
	d := h>>17 | h<<47
	return d | 1 // odd stride: visits every bit position mod a power of two
}

// addHash sets the key's k probe bits from its precomputed base hash —
// the streaming run writer keeps only the 8-byte hash per record until the
// record count (and so the filter size) is known.
func (b *bloomFilter) addHash(h uint64) {
	d := bloomDelta(h)
	for i := uint32(0); i < b.k; i++ {
		pos := h % b.nbits
		b.bits[pos/8] |= 1 << (pos % 8)
		h += d
	}
}

// mayContain reports whether key may have been added. False positives at
// roughly 0.62^bitsPerKey; never false negatives.
func (b *bloomFilter) mayContain(key string) bool {
	h := bloomHash(key)
	d := bloomDelta(h)
	for i := uint32(0); i < b.k; i++ {
		pos := h % b.nbits
		if b.bits[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += d
	}
	return true
}

// marshal serializes the filter: k (uint32), nbits (uint64), bit array.
func (b *bloomFilter) marshal() []byte {
	out := make([]byte, 12+len(b.bits))
	binary.LittleEndian.PutUint32(out[0:4], b.k)
	binary.LittleEndian.PutUint64(out[4:12], b.nbits)
	copy(out[12:], b.bits)
	return out
}

// unmarshalBloom inverts marshal.
func unmarshalBloom(data []byte) (*bloomFilter, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("store: bloom filter block too short (%d bytes)", len(data))
	}
	k := binary.LittleEndian.Uint32(data[0:4])
	nbits := binary.LittleEndian.Uint64(data[4:12])
	if k < 1 || k > 30 || nbits == 0 || uint64(len(data)-12) != (nbits+7)/8 {
		return nil, fmt.Errorf("store: bloom filter block malformed (k=%d nbits=%d len=%d)", k, nbits, len(data))
	}
	return &bloomFilter{bits: data[12:], nbits: nbits, k: k}, nil
}
