package store

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/spatial"
)

// This file implements the immutable sorted-run files of the tiered
// sighting store (format version 3). The package comment describes how
// the tiers use them; the file layout is specified here:
//
//	[records][spatial leaves][bloom block][index block][leaf directory][112-byte footer]
//
// Records are sorted strictly by object id. Each record is
//
//	flags(1) | uvarint oidLen | oid |                       (tombstone)
//	flags(1) | uvarint oidLen | oid | T i64 | X f64 | Y f64 |
//	          SensAcc f64 | expires i64                      (live)
//
// with flags bit0 = tombstone, bit1 = T valid, bit2 = expires valid.
// Timestamps are UnixNano; a cleared validity bit means the zero
// time.Time.
//
// The spatial leaves hold every live record a second time, in the same
// encoding — tombstones have no position and are not indexed — sorted by
// the Hilbert key of the position over the run's MBR and cut into leaves
// of runLeafEntries records (the last one may be short), so a spatial read
// takes each record from the one leaf it fetched. The leaf directory holds
// one 36-byte entry per leaf, in leaf order: its MBR (MinX, MinY, MaxX,
// MaxY f64) and its length in bytes (u32); the lengths add up to the
// spatial region's.
//
// The bloom block is bloomFilter.marshal over every record's id
// (tombstones included). The index block holds the run's key range and a
// sparse index, one (oid, offset) entry per runSparseEvery records.
//
// Resident per run: bloom filter, sparse index and leaf directory
// (≈0.6 B per live record) and, for a run this process wrote, its object
// table (8 B per live record); records and spatial leaves stay on disk.
//
// The footer pins the five region lengths, the record counts, the MBR of
// the live records and three CRC32s:
//
//   - crcMeta covers bloom + index + leaf directory and is verified at
//     open, which reads exactly those blocks and the footer — recovery
//     cost is O(metadata).
//   - crcData covers the records region and is verified by every complete
//     scan (compaction, enumeration, verify), so data corruption surfaces
//     before it can propagate into a merged run.
//   - crcSpatial covers the spatial leaves and is verified by verify (run
//     before a fetched run is installed). Spatial reads in between check
//     each leaf structurally instead: it must hold exactly its share of
//     the live records, none of them a tombstone, each well-formed and
//     inside the leaf's directory MBR. A leaf failing that is skipped and
//     counted as a read error.
const (
	runMagic      uint64 = 0x4c5352554e303031 // "LSRUN001"
	runVersion    uint32 = 3
	runFooterSize        = 112
	// runTrailerSize is the footer's version + magic tail, at the same
	// distance from the end of the file in every format version.
	runTrailerSize = 12

	// runSparseEvery is the sparse-index granularity: a point lookup reads
	// and scans at most this many records after the bloom filter and the
	// binary search admit the run.
	runSparseEvery = 16

	// runLeafEntries is the spatial leaf fan-out: a spatial read fetches
	// and tests this many records per directory MBR it cannot rule out.
	runLeafEntries      = 64
	runLeafDirEntrySize = 36

	runFlagTombstone = 1 << 0
	runFlagHasT      = 1 << 1
	runFlagHasExp    = 1 << 2
)

// tierTempPattern names the temporaries of every atomic run or manifest
// write. Crash leftovers match tierTempGlob and are swept when the store
// opens its tiers; they were never renamed into place, so they carry no
// authority.
const (
	tierTempPattern = ".tier-tmp-*"
	tierTempGlob    = ".tier-*"
)

// runFileName names shard's run with sequence seq. Runs sort oldest-first
// by name, but authority order is the manifest's, not the directory's.
func runFileName(shard int, seq uint64) string {
	return fmt.Sprintf("run-%04d-%08d.run", shard, seq)
}

// parseRunName inverts runFileName for directory sweeps.
func parseRunName(name string) (shard int, seq uint64, ok bool) {
	var i int
	var s uint64
	if n, err := fmt.Sscanf(name, "run-%d-%d.run", &i, &s); n == 2 && err == nil && name == runFileName(i, s) {
		return i, s, true
	}
	return 0, 0, false
}

// runRecord is one entry of a sorted run: a live sighting with its
// soft-state lease, or a tombstone marking the id removed (shadowing any
// version of the id in older runs until compaction drops both).
type runRecord struct {
	s         core.Sighting // s.OID is the key; other fields zero on tombstones
	expires   time.Time
	tombstone bool
}

// appendRunRecord encodes rec onto buf.
func appendRunRecord(buf []byte, rec runRecord) []byte {
	var flags byte
	if rec.tombstone {
		flags |= runFlagTombstone
	}
	if !rec.s.T.IsZero() {
		flags |= runFlagHasT
	}
	if !rec.expires.IsZero() {
		flags |= runFlagHasExp
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(rec.s.OID)))
	buf = append(buf, rec.s.OID...)
	if rec.tombstone {
		return buf
	}
	var t, exp int64
	if flags&runFlagHasT != 0 {
		t = rec.s.T.UnixNano()
	}
	if flags&runFlagHasExp != 0 {
		exp = rec.expires.UnixNano()
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.s.Pos.X))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.s.Pos.Y))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.s.SensAcc))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(exp))
	return buf
}

// runLivePayload is the fixed payload size following a live record's key.
const runLivePayload = 40

// splitRunRecord parses the header of the record starting at buf[pos]:
// its flags, its key (aliasing buf) and the offset just past the whole
// record. Point lookups step over records with it without building an id.
func splitRunRecord(buf []byte, pos int) (flags byte, key []byte, next int, err error) {
	if pos < 0 || pos >= len(buf) {
		return 0, nil, 0, fmt.Errorf("store: run record truncated at offset %d", pos)
	}
	flags = buf[pos]
	pos++
	n, w := binary.Uvarint(buf[pos:])
	if w <= 0 || n > uint64(len(buf)-pos-w) {
		return 0, nil, 0, fmt.Errorf("store: run record id truncated at offset %d", pos)
	}
	pos += w
	key = buf[pos : pos+int(n)]
	next = pos + int(n)
	if flags&runFlagTombstone == 0 {
		if next+runLivePayload > len(buf) {
			return 0, nil, 0, fmt.Errorf("store: run record payload truncated at offset %d", next)
		}
		next += runLivePayload
	}
	return flags, key, next, nil
}

// decodeRunRecord decodes one record starting at buf[pos], returning the
// record and the offset just past it.
func decodeRunRecord(buf []byte, pos int) (runRecord, int, error) {
	flags, key, next, err := splitRunRecord(buf, pos)
	if err != nil {
		return runRecord{}, 0, err
	}
	rec := runRecord{tombstone: flags&runFlagTombstone != 0}
	rec.s.OID = core.OID(key)
	if rec.tombstone {
		return rec, next, nil
	}
	payload := buf[next-runLivePayload : next]
	if flags&runFlagHasT != 0 {
		rec.s.T = time.Unix(0, int64(binary.LittleEndian.Uint64(payload)))
	}
	rec.s.Pos.X = math.Float64frombits(binary.LittleEndian.Uint64(payload[8:]))
	rec.s.Pos.Y = math.Float64frombits(binary.LittleEndian.Uint64(payload[16:]))
	rec.s.SensAcc = math.Float64frombits(binary.LittleEndian.Uint64(payload[24:]))
	if flags&runFlagHasExp != 0 {
		rec.expires = time.Unix(0, int64(binary.LittleEndian.Uint64(payload[32:])))
	}
	return rec, next, nil
}

// sparseEntry is one in-RAM sparse-index entry: the id of every
// runSparseEvery-th record and its byte offset in the records region.
type sparseEntry struct {
	oid core.OID
	off int64
}

// leafEntry is one record of a spatial leaf: its position and its
// encoding, aliasing the buffer the leaf was read into.
type leafEntry struct {
	pos geo.Point
	rec []byte
}

// liveRef locates one live record's encoding in runWriter.liveEnc.
type liveRef struct {
	pos geo.Point
	at  int
}

// runWriter streams records (strictly ascending by id) into a run file
// using the write-temp/fsync/rename/dir-fsync protocol: the run either
// exists complete under its final name or not at all. The records region
// is written in one pass; what the writer keeps per record until finish is
// one 8-byte hash (for the bloom filter, whose size needs the final count),
// the sparse index and, per live record, its encoding plus a 24-byte
// reference to it (the spatial leaves copy the records in an order along
// a curve over the final MBR).
type runWriter struct {
	dir, name string
	tmp       *os.File
	crc       hash.Hash32
	bufw      writeCounter

	count, live int64
	hashes      []uint64
	sparse      []sparseEntry
	liveRefs    []liveRef
	liveEnc     []byte // encodings of the live records, in id order
	last        core.OID
	minOID      core.OID
	maxOID      core.OID
	mbr         geo.Rect
	bitsPerKey  int
	scratch     []byte
	// order holds, once finish wrote the spatial leaves, each spatial
	// slot's (curve key, live record index) pair, in slot order.
	order []uint64
}

// writeCounter tracks bytes written through a buffered writer.
type writeCounter struct {
	w *os.File
	b []byte
	n int64
}

func (wc *writeCounter) write(p []byte) error {
	if len(wc.b)+len(p) > cap(wc.b) {
		if err := wc.flush(); err != nil {
			return err
		}
	}
	if len(p) > cap(wc.b) {
		m, err := wc.w.Write(p)
		wc.n += int64(m)
		return err
	}
	wc.b = append(wc.b, p...)
	wc.n += int64(len(p))
	return nil
}

func (wc *writeCounter) flush() error {
	if len(wc.b) == 0 {
		return nil
	}
	_, err := wc.w.Write(wc.b)
	wc.b = wc.b[:0]
	return err
}

// newRunWriter creates the temporary for dir/name.
func newRunWriter(dir, name string, bitsPerKey int) (*runWriter, error) {
	tmp, err := os.CreateTemp(dir, tierTempPattern)
	if err != nil {
		return nil, fmt.Errorf("store: creating run temp in %s: %w", dir, err)
	}
	return &runWriter{
		dir:        dir,
		name:       name,
		tmp:        tmp,
		crc:        crc32.NewIEEE(),
		bufw:       writeCounter{w: tmp, b: make([]byte, 0, 64*1024)},
		bitsPerKey: bitsPerKey,
	}, nil
}

// add appends one record. Records must arrive in strictly ascending id
// order — the invariant every lookup and merge relies on.
func (w *runWriter) add(rec runRecord) error {
	id := rec.s.OID
	if w.count > 0 && id <= w.last {
		return fmt.Errorf("store: run records out of order (%q after %q)", id, w.last)
	}
	off := w.bufw.n
	if w.count%runSparseEvery == 0 {
		w.sparse = append(w.sparse, sparseEntry{oid: id, off: off})
	}
	w.scratch = appendRunRecord(w.scratch[:0], rec)
	if err := w.bufw.write(w.scratch); err != nil {
		return fmt.Errorf("store: writing run record: %w", err)
	}
	w.crc.Write(w.scratch)
	w.hashes = append(w.hashes, bloomHash(string(id)))
	if w.count == 0 {
		w.minOID = id
	}
	w.maxOID = id
	w.last = id
	w.count++
	if !rec.tombstone {
		if w.live == 0 {
			w.mbr = geo.Rect{Min: rec.s.Pos, Max: rec.s.Pos}
		} else {
			w.mbr.GrowToInclude(rec.s.Pos)
		}
		w.live++
		w.liveRefs = append(w.liveRefs, liveRef{pos: rec.s.Pos, at: len(w.liveEnc)})
		w.liveEnc = append(w.liveEnc, w.scratch...)
	}
	return nil
}

// abort discards the temporary.
func (w *runWriter) abort() {
	w.tmp.Close()
	os.Remove(w.tmp.Name())
}

// slotLive returns which live record, counted in the order added, the
// finished run's spatial slot holds; slot leaf·runLeafEntries + entry is
// the entry of that spatial leaf.
func (w *runWriter) slotLive(slot int) int { return int(uint32(w.order[slot])) }

// liveKey returns the id of the i-th live record added, aliasing the
// writer's buffer.
func (w *runWriter) liveKey(i int) []byte {
	_, key, _, _ := splitRunRecord(w.liveEnc, w.liveRefs[i].at) // well-formed: add encoded it
	return key
}

// putRect encodes r (MinX, MinY, MaxX, MaxY as f64) into b[:32]; getRect
// decodes it. The footer's MBR and the leaf directory share the encoding.
func putRect(b []byte, r geo.Rect) {
	binary.LittleEndian.PutUint64(b[0:], math.Float64bits(r.Min.X))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r.Min.Y))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(r.Max.X))
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(r.Max.Y))
}

func getRect(b []byte) geo.Rect {
	return geo.Rect{
		Min: geo.Pt(math.Float64frombits(binary.LittleEndian.Uint64(b[0:])), math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))),
		Max: geo.Pt(math.Float64frombits(binary.LittleEndian.Uint64(b[16:])), math.Float64frombits(binary.LittleEndian.Uint64(b[24:]))),
	}
}

// writeSpatial sorts the buffered live records along the Hilbert curve
// over the run's MBR, appends them to the file as the spatial leaves and
// returns the region's checksum and the leaf directory block.
func (w *runWriter) writeSpatial() (crcSpatial uint32, dir []byte, err error) {
	if int64(len(w.liveRefs)) > math.MaxUint32 {
		return 0, nil, fmt.Errorf("store: run %s holds %d live records, beyond the spatial block's limit", w.name, len(w.liveRefs))
	}
	// Sort (curve key, record index) pairs packed into one word each, then
	// emit the records in that order, a leaf at a time.
	order := make([]uint64, len(w.liveRefs))
	for i, l := range w.liveRefs {
		order[i] = uint64(geo.HilbertKey(w.mbr, l.pos))<<32 | uint64(i)
	}
	slices.Sort(order)
	w.order = order

	crc := crc32.NewIEEE()
	var leaf []byte
	for len(order) > 0 {
		n := min(len(order), runLeafEntries)
		first := w.liveRefs[uint32(order[0])].pos
		mbr := geo.Rect{Min: first, Max: first}
		leaf = leaf[:0]
		for _, o := range order[:n] {
			i := int(uint32(o))
			end := len(w.liveEnc)
			if i+1 < len(w.liveRefs) {
				end = w.liveRefs[i+1].at
			}
			mbr.GrowToInclude(w.liveRefs[i].pos)
			leaf = append(leaf, w.liveEnc[w.liveRefs[i].at:end]...)
		}
		if int64(len(leaf)) > math.MaxUint32 {
			return 0, nil, fmt.Errorf("store: run %s spatial leaf of %d bytes, beyond the directory's limit", w.name, len(leaf))
		}
		if err := w.bufw.write(leaf); err != nil {
			return 0, nil, fmt.Errorf("store: writing run spatial leaf: %w", err)
		}
		crc.Write(leaf)
		dir = append(dir, make([]byte, runLeafDirEntrySize)...)
		putRect(dir[len(dir)-runLeafDirEntrySize:], mbr)
		binary.LittleEndian.PutUint32(dir[len(dir)-4:], uint32(len(leaf)))
		order = order[n:]
	}
	return crc.Sum32(), dir, nil
}

// finish writes the spatial leaves, the meta blocks and the footer, makes
// the file and its directory entry durable, and renames it into place.
func (w *runWriter) finish() error {
	fail := func(err error) error {
		w.abort()
		return err
	}
	recordsLen := w.bufw.n
	crcData := w.crc.Sum32()

	crcSpatial, dir, err := w.writeSpatial()
	if err != nil {
		return fail(err)
	}
	spatialLen := w.bufw.n - recordsLen

	bloom := newBloomFilter(int(w.count), w.bitsPerKey)
	for _, h := range w.hashes {
		bloom.addHash(h)
	}
	bloomBlock := bloom.marshal()

	idx := make([]byte, 0, 64+len(w.sparse)*24)
	idx = binary.AppendUvarint(idx, uint64(len(w.minOID)))
	idx = append(idx, w.minOID...)
	idx = binary.AppendUvarint(idx, uint64(len(w.maxOID)))
	idx = append(idx, w.maxOID...)
	idx = binary.AppendUvarint(idx, uint64(len(w.sparse)))
	for _, e := range w.sparse {
		idx = binary.AppendUvarint(idx, uint64(len(e.oid)))
		idx = append(idx, e.oid...)
		idx = binary.AppendUvarint(idx, uint64(e.off))
	}

	crcMeta := crc32.NewIEEE()
	crcMeta.Write(bloomBlock)
	crcMeta.Write(idx)
	crcMeta.Write(dir)

	footer := make([]byte, runFooterSize)
	binary.LittleEndian.PutUint64(footer[0:], uint64(recordsLen))
	binary.LittleEndian.PutUint64(footer[8:], uint64(w.count))
	binary.LittleEndian.PutUint64(footer[16:], uint64(w.live))
	binary.LittleEndian.PutUint64(footer[24:], uint64(spatialLen))
	binary.LittleEndian.PutUint64(footer[32:], uint64(len(bloomBlock)))
	binary.LittleEndian.PutUint64(footer[40:], uint64(len(idx)))
	binary.LittleEndian.PutUint64(footer[48:], uint64(len(dir)))
	putRect(footer[56:], w.mbr)
	binary.LittleEndian.PutUint32(footer[88:], crcData)
	binary.LittleEndian.PutUint32(footer[92:], crcSpatial)
	binary.LittleEndian.PutUint32(footer[96:], crcMeta.Sum32())
	binary.LittleEndian.PutUint32(footer[100:], runVersion)
	binary.LittleEndian.PutUint64(footer[104:], runMagic)

	for _, block := range [][]byte{bloomBlock, idx, dir, footer} {
		if err := w.bufw.write(block); err != nil {
			return fail(fmt.Errorf("store: writing run meta: %w", err))
		}
	}
	if err := w.bufw.flush(); err != nil {
		return fail(fmt.Errorf("store: flushing run: %w", err))
	}
	if err := w.tmp.Sync(); err != nil {
		return fail(fmt.Errorf("store: syncing run: %w", err))
	}
	if err := w.tmp.Close(); err != nil {
		os.Remove(w.tmp.Name())
		return fmt.Errorf("store: closing run temp: %w", err)
	}
	final := filepath.Join(w.dir, w.name)
	if err := os.Rename(w.tmp.Name(), final); err != nil {
		os.Remove(w.tmp.Name())
		return fmt.Errorf("store: renaming run into place: %w", err)
	}
	// The rename must itself be durable: without the directory fsync a
	// machine crash can forget the entry while the (fsynced) manifest
	// written next already references it — an unopenable tier.
	return syncDir(final)
}

// tierRun is one opened immutable run: a read-only file handle plus the
// in-RAM metadata (bloom filter, sparse index, leaf directory, key range,
// MBR, counts) every probe is gated through. Runs are reference-counted:
// the manifest holds one reference, enumerations that read the file
// outside the shard lock hold one more for their duration, and the file is
// closed (and, for compacted-away runs, deleted) when the last reference
// drops.
type tierRun struct {
	path       string
	f          *os.File
	size       int64
	recordsLen int64 // records region [0, recordsLen)
	spatialLen int64 // spatial leaves [recordsLen, recordsLen+spatialLen)
	count      int64
	live       int64
	mbr        geo.Rect
	crcData    uint32
	crcSpatial uint32
	bloom      *bloomFilter
	sparse     []sparseEntry
	leaves     []geo.Rect // leaf directory: MBR of spatial leaf i
	leafAt     []int64    // spatial leaf i is [leafAt[i], leafAt[i+1]) past recordsLen
	minOID     core.OID
	maxOID     core.OID

	// objs is the run's object table, nil unless this process wrote the
	// run, knew a registered object of it and no replication install has
	// cleared it since: spatial slot leaf·runLeafEntries + entry maps to
	// the object of the record there (nil: none known), and seq is the
	// run's sequence. Guarded by the shard lock; see tableVerdict.
	objs []*object
	seq  uint64

	refs            atomic.Int32
	removeOnRelease atomic.Bool
}

// openRun opens path, reading footer and meta blocks and verifying the
// meta checksum. Neither the records nor the spatial leaves are read —
// that is what keeps tiered recovery O(metadata).
func openRun(path string) (*tierRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: opening run %s: %w", path, err)
	}
	fail := func(err error) (*tierRun, error) {
		f.Close()
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return fail(fmt.Errorf("store: statting run %s: %w", path, err))
	}
	// One read of the file's tail; the version + magic trailer is checked
	// before the length, because it sits at the same place in every format
	// version — a file of another version is reported as such, not as
	// truncated or garbage.
	footer := make([]byte, min(st.Size(), runFooterSize))
	if _, err := f.ReadAt(footer, st.Size()-int64(len(footer))); err != nil {
		return fail(fmt.Errorf("store: reading run footer %s: %w", path, err))
	}
	if len(footer) < runTrailerSize {
		return fail(fmt.Errorf("store: run %s too short (%d bytes)", path, st.Size()))
	}
	trailer := footer[len(footer)-runTrailerSize:]
	if got := binary.LittleEndian.Uint64(trailer[4:]); got != runMagic {
		return fail(fmt.Errorf("store: run %s bad magic %#x", path, got))
	}
	if v := binary.LittleEndian.Uint32(trailer[0:]); v != runVersion {
		return fail(fmt.Errorf("store: run %s has format version %d, this build reads only version %d", path, v, runVersion))
	}
	if len(footer) < runFooterSize {
		return fail(fmt.Errorf("store: run %s too short (%d bytes)", path, st.Size()))
	}
	r := &tierRun{
		path:       path,
		f:          f,
		size:       st.Size(),
		recordsLen: int64(binary.LittleEndian.Uint64(footer[0:])),
		count:      int64(binary.LittleEndian.Uint64(footer[8:])),
		live:       int64(binary.LittleEndian.Uint64(footer[16:])),
		spatialLen: int64(binary.LittleEndian.Uint64(footer[24:])),
		crcData:    binary.LittleEndian.Uint32(footer[88:]),
		crcSpatial: binary.LittleEndian.Uint32(footer[92:]),
	}
	bloomLen := int64(binary.LittleEndian.Uint64(footer[32:]))
	idxLen := int64(binary.LittleEndian.Uint64(footer[40:]))
	dirLen := int64(binary.LittleEndian.Uint64(footer[48:]))
	r.mbr = getRect(footer[56:])
	// Each length is bounded by the file size before they are summed, so a
	// hostile footer cannot overflow the consistency check.
	for _, n := range [...]int64{r.recordsLen, r.spatialLen, bloomLen, idxLen, dirLen} {
		if n < 0 || n > st.Size() {
			return fail(fmt.Errorf("store: run %s region length %d out of range", path, n))
		}
	}
	if r.recordsLen+r.spatialLen+bloomLen+idxLen+dirLen+runFooterSize != st.Size() {
		return fail(fmt.Errorf("store: run %s region lengths inconsistent with size %d", path, st.Size()))
	}
	// Every live record takes more than a byte of the spatial block, which
	// bounds the leaf count before the directory is sized from it.
	if r.live < 0 || r.live > r.count || r.live > r.spatialLen {
		return fail(fmt.Errorf("store: run %s spatial block of %d bytes cannot hold its %d live records", path, r.spatialLen, r.live))
	}
	meta := make([]byte, bloomLen+idxLen+dirLen)
	if _, err := f.ReadAt(meta, r.recordsLen+r.spatialLen); err != nil {
		return fail(fmt.Errorf("store: reading run meta %s: %w", path, err))
	}
	if got := crc32.ChecksumIEEE(meta); got != binary.LittleEndian.Uint32(footer[96:]) {
		return fail(fmt.Errorf("store: run %s meta checksum mismatch", path))
	}
	if r.bloom, err = unmarshalBloom(meta[:bloomLen]); err != nil {
		return fail(fmt.Errorf("store: run %s: %w", path, err))
	}
	if err := r.parseIndex(meta[bloomLen : bloomLen+idxLen]); err != nil {
		return fail(fmt.Errorf("store: run %s index: %w", path, err))
	}
	if r.leaves, r.leafAt, err = parseLeafDir(meta[bloomLen+idxLen:], r.live, r.spatialLen); err != nil {
		return fail(fmt.Errorf("store: run %s: %w", path, err))
	}
	r.refs.Store(1)
	return r, nil
}

// parseLeafDir decodes the leaf directory block of a run holding live
// indexed records in a spatial region of spatialLen bytes: one MBR per
// spatial leaf, and the leaves' bounds within the region, which they must
// tile exactly.
func parseLeafDir(b []byte, live, spatialLen int64) (leaves []geo.Rect, leafAt []int64, err error) {
	want := (live + runLeafEntries - 1) / runLeafEntries
	if int64(len(b)) != want*runLeafDirEntrySize {
		return nil, nil, fmt.Errorf("leaf directory of %d bytes does not describe the %d leaves of %d live records", len(b), want, live)
	}
	leaves = make([]geo.Rect, want)
	leafAt = make([]int64, want+1)
	for i := range leaves {
		e := b[i*runLeafDirEntrySize:]
		leaves[i] = getRect(e)
		leafAt[i+1] = leafAt[i] + int64(binary.LittleEndian.Uint32(e[32:]))
		if leafAt[i+1] > spatialLen {
			return nil, nil, fmt.Errorf("spatial leaf %d extends past the %d-byte spatial region", i, spatialLen)
		}
	}
	if leafAt[want] != spatialLen {
		return nil, nil, fmt.Errorf("spatial leaves add up to %d bytes, the spatial region holds %d", leafAt[want], spatialLen)
	}
	return leaves, leafAt, nil
}

// parseIndex decodes the index block into the key range and sparse index.
func (r *tierRun) parseIndex(b []byte) error {
	readOID := func(pos int) (core.OID, int, error) {
		n, w := binary.Uvarint(b[pos:])
		if w <= 0 || pos+w+int(n) > len(b) {
			return "", 0, fmt.Errorf("truncated at offset %d", pos)
		}
		return core.OID(b[pos+w : pos+w+int(n)]), pos + w + int(n), nil
	}
	var err error
	pos := 0
	if r.minOID, pos, err = readOID(pos); err != nil {
		return err
	}
	if r.maxOID, pos, err = readOID(pos); err != nil {
		return err
	}
	n, w := binary.Uvarint(b[pos:])
	if w <= 0 {
		return fmt.Errorf("truncated sparse count at offset %d", pos)
	}
	pos += w
	r.sparse = make([]sparseEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		var oid core.OID
		if oid, pos, err = readOID(pos); err != nil {
			return err
		}
		off, w := binary.Uvarint(b[pos:])
		if w <= 0 {
			return fmt.Errorf("truncated sparse offset at offset %d", pos)
		}
		pos += w
		r.sparse = append(r.sparse, sparseEntry{oid: oid, off: int64(off)})
	}
	return nil
}

// acquire takes a reference, failing if the run has already fully
// released (its file is closed).
func (r *tierRun) acquire() bool {
	for {
		n := r.refs.Load()
		if n <= 0 {
			return false
		}
		if r.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// release drops one reference; the last one out closes the file and, if
// the run was retired by a compaction, deletes it.
func (r *tierRun) release() {
	if r.refs.Add(-1) > 0 {
		return
	}
	r.f.Close()
	if r.removeOnRelease.Load() {
		os.Remove(r.path)
	}
}

// retire drops the manifest's reference after the run left the manifest;
// remove additionally deletes the file once every in-flight reader is
// done.
func (r *tierRun) retire(remove bool) {
	if remove {
		r.removeOnRelease.Store(true)
	}
	r.release()
}

// setObj makes o the object of the record at spatial slot, allocating the
// run's object table on its first entry. Caller holds the run unpublished.
func (r *tierRun) setObj(slot int, o *object) {
	if r.objs == nil {
		r.objs = make([]*object, r.live)
	}
	r.objs[slot] = o
}

// metaBytes estimates the run's resident metadata footprint: bloom
// filter, sparse index, leaf directory (an MBR and an offset per leaf)
// and object table (a pointer per live record).
func (r *tierRun) metaBytes() int64 {
	n := int64(len(r.bloom.bits)) + 128 + int64(len(r.leaves))*32 + int64(len(r.leafAt))*8 + int64(len(r.objs))*8
	for _, e := range r.sparse {
		n += int64(len(e.oid)) + 24
	}
	return n
}

// runScratch holds the read buffers of one run probe, pooled so that
// point lookups and spatial reads allocate only for the records they
// return.
type runScratch struct {
	block   []byte                    // sparse-index block of a point lookup, grown on demand
	leaf    []byte                    // spatial leaf of a range read, grown on demand
	entries [runLeafEntries]leafEntry // leaf, decoded
}

var runScratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// runHits is a range read's batch of one leaf's hits, pooled apart from
// runScratch, which point lookups take too: the sightings and the index
// items handed on, each item's Ref aiming at its sighting.
type runHits struct {
	sightings [runLeafEntries]core.Sighting
	items     [runLeafEntries]spatial.Item
}

var runHitsPool = sync.Pool{New: func() any { return new(runHits) }}

// get point-looks id up in the run: binary search over the sparse index,
// then a bounded scan of at most runSparseEvery records. The caller has
// already consulted the bloom filter.
func (r *tierRun) get(id core.OID) (runRecord, bool, error) {
	if r.count == 0 || id < r.minOID || id > r.maxOID {
		return runRecord{}, false, nil
	}
	// First sparse entry strictly greater than id bounds the block.
	i := sort.Search(len(r.sparse), func(i int) bool { return r.sparse[i].oid > id })
	if i == 0 {
		return runRecord{}, false, nil
	}
	start := r.sparse[i-1].off
	end := r.recordsLen
	if i < len(r.sparse) {
		end = r.sparse[i].off
	}
	if start < 0 || end > r.recordsLen || start > end {
		return runRecord{}, false, fmt.Errorf("store: run %s sparse index block [%d, %d) outside the records region", r.path, start, end)
	}
	sc := runScratchPool.Get().(*runScratch)
	defer runScratchPool.Put(sc)
	if int64(cap(sc.block)) < end-start {
		sc.block = make([]byte, end-start)
	}
	block := sc.block[:end-start]
	if _, err := r.f.ReadAt(block, start); err != nil {
		return runRecord{}, false, fmt.Errorf("store: reading run block %s: %w", r.path, err)
	}
	// Keys are compared in place; only the record returned is decoded.
	for pos := 0; pos < len(block); {
		_, key, next, err := splitRunRecord(block, pos)
		if err != nil {
			return runRecord{}, false, fmt.Errorf("store: run %s: %w", r.path, err)
		}
		if string(key) == string(id) {
			rec, _, err := decodeRunRecord(block, pos)
			return rec, err == nil, err
		}
		if string(key) > string(id) {
			return runRecord{}, false, nil
		}
		pos = next
	}
	return runRecord{}, false, nil
}

// readLeaf reads spatial leaf i into *buf (grown when short) and decodes
// it into dst; the entries alias *buf. A leaf failing decodeLeaf's checks
// is corrupt as a whole.
func (r *tierRun) readLeaf(i int, buf *[]byte, dst []leafEntry) ([]leafEntry, error) {
	start, end := r.leafAt[i], r.leafAt[i+1]
	if int64(cap(*buf)) < end-start {
		*buf = make([]byte, end-start)
	}
	b := (*buf)[:end-start]
	if _, err := r.f.ReadAt(b, r.recordsLen+start); err != nil {
		return nil, fmt.Errorf("store: reading run %s spatial leaf %d: %w", r.path, i, err)
	}
	n := int(min(r.live-int64(i)*runLeafEntries, runLeafEntries))
	entries, err := decodeLeaf(dst, b, r.leaves[i], n)
	if err != nil {
		return nil, fmt.Errorf("store: run %s spatial leaf %d: %w", r.path, i, err)
	}
	return entries, nil
}

// decodeLeaf appends the n records of one spatial leaf to dst, checking
// that buf holds exactly n well-formed live records, each inside the
// leaf's directory MBR. Only positions are decoded; each entry keeps its
// record's bytes for the caller to decode on a hit.
func decodeLeaf(dst []leafEntry, buf []byte, mbr geo.Rect, n int) ([]leafEntry, error) {
	i := 0
	for pos := 0; pos < len(buf); i++ {
		if i == n {
			return nil, fmt.Errorf("%d bytes past its %d records", len(buf)-pos, n)
		}
		flags, _, next, err := splitRunRecord(buf, pos)
		if err != nil {
			return nil, err
		}
		if flags&runFlagTombstone != 0 {
			return nil, fmt.Errorf("record %d is a tombstone", i)
		}
		payload := buf[next-runLivePayload:]
		p := geo.Pt(math.Float64frombits(binary.LittleEndian.Uint64(payload[8:])), math.Float64frombits(binary.LittleEndian.Uint64(payload[16:])))
		if !mbr.ContainsClosed(p) {
			return nil, fmt.Errorf("record %d at %v outside the leaf's bounds %v", i, p, mbr)
		}
		dst = append(dst, leafEntry{pos: p, rec: buf[pos:next]})
		pos = next
	}
	if i != n {
		return nil, fmt.Errorf("%d records, want %d", i, n)
	}
	return dst, nil
}

// verify reads the whole file once and checks both region checksums: a
// complete scan of the records against crcData, then the spatial leaves
// against crcSpatial. Run on a fetched file before it is installed.
func (r *tierRun) verify() error {
	if err := r.scan(func(runRecord) bool { return true }); err != nil {
		return err
	}
	crc := crc32.NewIEEE()
	if _, err := io.Copy(crc, io.NewSectionReader(r.f, r.recordsLen, r.spatialLen)); err != nil {
		return fmt.Errorf("store: reading run %s spatial leaves: %w", r.path, err)
	}
	if crc.Sum32() != r.crcSpatial {
		return fmt.Errorf("store: run %s spatial checksum mismatch", r.path)
	}
	return nil
}

// runIterator streams a run's records in id order, verifying the data
// checksum when the region is fully consumed.
type runIterator struct {
	run       *tierRun
	crc       hash.Hash32
	buf       []byte
	pos       int64 // file offset of buf[0]
	off       int   // decode offset within buf
	delivered int64
	err       error
}

// runIterChunk is the read size of a streaming pass.
const runIterChunk = 256 << 10

// iter opens a streaming pass over the records region.
func (r *tierRun) iter() *runIterator {
	return &runIterator{run: r, crc: crc32.NewIEEE()}
}

// next returns the next record. After false, error() distinguishes a
// clean end (with checksum verified) from an I/O or decode failure.
func (it *runIterator) next() (runRecord, bool) {
	if it.err != nil || it.delivered >= it.run.count {
		return runRecord{}, false
	}
	for {
		rec, nextOff, derr := decodeRunRecord(it.buf, it.off)
		if derr == nil {
			it.off = nextOff
			it.delivered++
			if it.delivered == it.run.count {
				// A checksum failure surfaces through error() after the
				// final record is delivered.
				it.finishCRC()
			}
			return rec, true
		}
		// Not enough buffered: slide and refill.
		remainingFile := it.run.recordsLen - (it.pos + int64(len(it.buf)))
		if remainingFile <= 0 {
			it.err = fmt.Errorf("store: run %s truncated records region", it.run.path)
			return runRecord{}, false
		}
		it.pos += int64(it.off)
		tail := len(it.buf) - it.off
		chunk := int64(runIterChunk)
		if chunk > remainingFile {
			chunk = remainingFile
		}
		// One buffer per iterator: slide the undecoded tail to the front
		// and refill behind it (delivered records hold no reference into
		// the buffer — their ids were copied out). The first fill has no
		// tail, so it leaves room for the later ones' partial record.
		need := tail + int(chunk)
		if cap(it.buf) < need {
			nbuf := make([]byte, need, need+4<<10)
			copy(nbuf, it.buf[it.off:])
			it.buf = nbuf
		} else {
			copy(it.buf[:tail], it.buf[it.off:])
			it.buf = it.buf[:need]
		}
		if _, err := it.run.f.ReadAt(it.buf[tail:], it.pos+int64(tail)); err != nil {
			it.err = fmt.Errorf("store: reading run %s: %w", it.run.path, err)
			return runRecord{}, false
		}
		it.crc.Write(it.buf[tail:])
		it.off = 0
	}
}

// finishCRC verifies the data checksum once every record was delivered.
// Any bytes past the final record within the region are a format error.
func (it *runIterator) finishCRC() {
	consumed := it.pos + int64(len(it.buf))
	if consumed < it.run.recordsLen {
		// Records ended early; read the remainder so the CRC covers the
		// whole region (trailing garbage fails the check).
		rest := make([]byte, it.run.recordsLen-consumed)
		if _, err := it.run.f.ReadAt(rest, consumed); err != nil {
			it.err = fmt.Errorf("store: reading run %s: %w", it.run.path, err)
			return
		}
		it.crc.Write(rest)
	}
	if it.crc.Sum32() != it.run.crcData {
		it.err = fmt.Errorf("store: run %s data checksum mismatch", it.run.path)
	}
}

// scan streams every record through visit (stopping early when visit
// returns false). A complete scan verifies the data checksum; an early
// stop skips the verification.
func (r *tierRun) scan(visit func(runRecord) bool) error {
	it := r.iter()
	for {
		rec, ok := it.next()
		if !ok {
			return it.err
		}
		if !visit(rec) {
			return nil
		}
	}
}

// error reports the first I/O, decode or checksum failure of the pass.
func (it *runIterator) error() error { return it.err }
