package store

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
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
// sighting store (format version 4). The package comment describes how
// the tiers use them; the file layout is specified here:
//
//	[records][spatial columns][bloom block][index block][leaf directory][112-byte footer]
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
// The spatial columns hold what a range or nearest-neighbor read needs of
// each live record — its position and its id, not the record itself;
// tombstones have no position and are not indexed. The live records are
// sorted by the Hilbert key of the position over the run's MBR into
// spatial slots, and the columns list them in slot order:
//
//	X f64 × live | Y f64 × live | idEnd u32 × live | id block
//
// Slot s's id is idBlock[idEnd[s-1]:idEnd[s]] (idEnd[-1] = 0), so the ends
// never decrease and the last is the id block's length. Slots are cut into
// leaves of runLeafEntries (the last one may be short); the leaf directory
// holds one 32-byte MBR per leaf (MinX, MinY, MaxX, MaxY f64), in leaf
// order, and every position lies inside its leaf's MBR and the run's.
//
// The bloom block is bloomFilter.marshal over every record's id
// (tombstones included). The index block holds the run's key range and a
// sparse index, one (oid, offset) entry per runSparseEvery records.
//
// Resident per run: bloom filter, sparse index, leaf directory and the
// spatial columns (≈ 21 B plus the id's length per live record: 16 B of
// position, 4 B of id end, the id, 0.5 B of directory) and, for a run this
// process wrote, its object table (8 B per live record); the records stay
// on disk. Opening a run costs O(metadata + columns).
//
// The footer pins the five region lengths, the record counts, the MBR of
// the live records and three CRC32s:
//
//   - crcMeta covers bloom + index + leaf directory and is verified at
//     open, which reads exactly those blocks, the footer and the spatial
//     columns.
//   - crcData covers the records region and is verified by every complete
//     scan (compaction, enumeration), so data corruption surfaces before it
//     can propagate into a merged run.
//   - crcSpatial covers the spatial columns and is verified at open, which
//     also refuses columns whose id ends or positions break the rules
//     above. Spatial reads then touch no disk, so damage to the columns
//     cannot surface at query time.
const (
	runMagic      uint64 = 0x4c5352554e303031 // "LSRUN001"
	runVersion    uint32 = 4
	runFooterSize        = 112
	// runTrailerSize is the footer's version + magic tail, at the same
	// distance from the end of the file in every format version.
	runTrailerSize = 12

	// runSparseEvery is the sparse-index granularity: a point lookup reads
	// and scans at most this many records after the bloom filter and the
	// binary search admit the run.
	runSparseEvery = 16

	// runLeafEntries is the spatial leaf fan-out: a spatial read tests this
	// many positions per directory MBR it cannot rule out.
	runLeafEntries      = 64
	runLeafDirEntrySize = 32
	// runSlotSize is the column bytes of one spatial slot besides its id:
	// X, Y and the id's end.
	runSlotSize = 20

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

// liveRef is what a runWriter keeps of one live record until finish: its
// position and its id.
type liveRef struct {
	pos geo.Point
	id  core.OID
}

// runWriter streams records (strictly ascending by id) into a run file
// using the write-temp/fsync/rename/dir-fsync protocol: the run either
// exists complete under its final name or not at all. The records region
// is written in one pass; what the writer keeps per record until finish is
// one 8-byte hash (for the bloom filter, whose size needs the final count),
// the sparse index and, per live record, its position and id (the spatial
// columns list them in an order along a curve over the final MBR).
type runWriter struct {
	dir, name string
	tmp       *os.File
	crc       hash.Hash32
	bufw      writeCounter

	count, live int64
	hashes      []uint64
	sparse      []sparseEntry
	liveRefs    []liveRef // in id order
	last        core.OID
	minOID      core.OID
	maxOID      core.OID
	mbr         geo.Rect
	scratch     []byte
	// order holds, once finish wrote the spatial columns, each spatial
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

// bloomBitsPerKey sizes each run's bloom filter: ≈1% false positives.
// The filter is stored in its run, so a change reaches new runs only.
const bloomBitsPerKey = 10

// newRunWriter creates the temporary for dir/name, sized for the n records
// the caller expects to add (a bound, not a limit).
func newRunWriter(dir, name string, n int) (*runWriter, error) {
	tmp, err := os.CreateTemp(dir, tierTempPattern)
	if err != nil {
		return nil, fmt.Errorf("store: creating run temp in %s: %w", dir, err)
	}
	return &runWriter{
		dir:      dir,
		name:     name,
		tmp:      tmp,
		crc:      crc32.NewIEEE(),
		bufw:     writeCounter{w: tmp, b: make([]byte, 0, 64*1024)},
		hashes:   make([]uint64, 0, n),
		sparse:   make([]sparseEntry, 0, n/runSparseEvery+1),
		liveRefs: make([]liveRef, 0, n),
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
		w.liveRefs = append(w.liveRefs, liveRef{pos: rec.s.Pos, id: id})
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

// spatialColumns sorts the live records along the Hilbert curve over the
// run's MBR into spatial slots and returns the spatial columns and the
// leaf directory block that describe them.
func (w *runWriter) spatialColumns() (section, dir []byte, err error) {
	n := len(w.liveRefs)
	idBytes := 0
	for _, l := range w.liveRefs {
		idBytes += len(l.id)
	}
	if int64(n) > math.MaxUint32 || int64(idBytes) > math.MaxUint32 {
		return nil, nil, fmt.Errorf("store: run %s holds %d live records of %d id bytes, beyond the spatial columns' limit", w.name, n, idBytes)
	}
	// Sort (curve key, record index) pairs packed into one word each, then
	// fill the columns in that order.
	order := make([]uint64, n)
	for i, l := range w.liveRefs {
		order[i] = uint64(geo.HilbertKey(w.mbr, l.pos))<<32 | uint64(i)
	}
	slices.Sort(order)
	w.order = order

	section = make([]byte, runSlotSize*n+idBytes)
	xs, ys, ends, ids := section[:8*n], section[8*n:16*n], section[16*n:20*n], section[20*n:]
	end := 0
	for s, o := range order {
		l := w.liveRefs[uint32(o)]
		binary.LittleEndian.PutUint64(xs[8*s:], math.Float64bits(l.pos.X))
		binary.LittleEndian.PutUint64(ys[8*s:], math.Float64bits(l.pos.Y))
		end += copy(ids[end:], l.id)
		binary.LittleEndian.PutUint32(ends[4*s:], uint32(end))
	}
	dir = make([]byte, 0, (n+runLeafEntries-1)/runLeafEntries*runLeafDirEntrySize)
	for lo := 0; lo < n; lo += runLeafEntries {
		first := w.liveRefs[uint32(order[lo])].pos
		mbr := geo.Rect{Min: first, Max: first}
		for _, o := range order[lo:min(lo+runLeafEntries, n)] {
			mbr.GrowToInclude(w.liveRefs[uint32(o)].pos)
		}
		dir = dir[:len(dir)+runLeafDirEntrySize]
		putRect(dir[len(dir)-runLeafDirEntrySize:], mbr)
	}
	return section, dir, nil
}

// finish writes the spatial columns, the meta blocks and the footer, makes
// the file and its directory entry durable, renames it into place and
// opens it, handing the run the columns it built: the run reads no
// spatial byte back.
func (w *runWriter) finish() (*tierRun, error) {
	fail := func(err error) (*tierRun, error) {
		w.abort()
		return nil, err
	}
	recordsLen := w.bufw.n
	crcData := w.crc.Sum32()

	section, dir, err := w.spatialColumns()
	if err != nil {
		return fail(err)
	}
	if err := w.bufw.write(section); err != nil {
		return fail(fmt.Errorf("store: writing run spatial columns: %w", err))
	}

	bloom := newBloomFilter(int(w.count), bloomBitsPerKey)
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
	binary.LittleEndian.PutUint64(footer[24:], uint64(len(section)))
	binary.LittleEndian.PutUint64(footer[32:], uint64(len(bloomBlock)))
	binary.LittleEndian.PutUint64(footer[40:], uint64(len(idx)))
	binary.LittleEndian.PutUint64(footer[48:], uint64(len(dir)))
	putRect(footer[56:], w.mbr)
	binary.LittleEndian.PutUint32(footer[88:], crcData)
	binary.LittleEndian.PutUint32(footer[92:], crc32.ChecksumIEEE(section))
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
		return nil, fmt.Errorf("store: closing run temp: %w", err)
	}
	final := filepath.Join(w.dir, w.name)
	if err := os.Rename(w.tmp.Name(), final); err != nil {
		os.Remove(w.tmp.Name())
		return nil, fmt.Errorf("store: renaming run into place: %w", err)
	}
	// The rename must itself be durable: without the directory fsync a
	// machine crash can forget the entry while the (fsynced) manifest
	// written next already references it — an unopenable tier.
	if err := syncDir(final); err != nil {
		return nil, err
	}
	r, err := openRun(final, section)
	if err != nil {
		os.Remove(final)
		return nil, err
	}
	return r, nil
}

// tierRun is one opened immutable run: a read-only file handle plus the
// in-RAM metadata (bloom filter, sparse index, leaf directory, key range,
// MBR, counts) every probe is gated through and the spatial columns every
// range and nearest-neighbor read is answered from. Runs are
// reference-counted: the manifest holds one reference, enumerations that
// read the file outside the shard lock hold one more for their duration,
// and the file is closed (and, for compacted-away runs, deleted) when the
// last reference drops.
type tierRun struct {
	path       string
	f          *os.File
	size       int64
	recordsLen int64 // records region [0, recordsLen)
	spatialLen int64 // spatial columns [recordsLen, recordsLen+spatialLen)
	count      int64
	live       int64
	mbr        geo.Rect
	crcData    uint32
	bloom      *bloomFilter
	sparse     []sparseEntry
	leaves     []geo.Rect // leaf directory: MBR of spatial leaf i
	runColumns
	minOID core.OID
	maxOID core.OID

	// objs is the run's object table, nil unless this process wrote the
	// run and knew a registered object of it: spatial slot leaf·runLeafEntries + entry maps to
	// the object of the record there (nil: none known), and seq is the
	// run's sequence. Guarded by the shard lock; see tableVerdict.
	objs []*object
	seq  uint64

	refs            atomic.Int32
	removeOnRelease atomic.Bool
}

// runColumns are a run's spatial columns, resident and pointer-free: per
// spatial slot its record's position and the end of its id in ids, which
// holds the slots' ids back to back.
type runColumns struct {
	pos   []geo.Point
	idEnd []uint32
	ids   string
}

// id returns the id of the record at spatial slot, a substring of ids.
func (c *runColumns) id(slot int) core.OID {
	var start uint32
	if slot > 0 {
		start = c.idEnd[slot-1]
	}
	return core.OID(c.ids[start:c.idEnd[slot]])
}

// openRun opens path, reading footer, meta blocks and spatial columns and
// verifying their checksums; a non-nil section is the spatial columns as
// the run's writer wrote them, taken instead of reading them back. The
// records are not read — that is what keeps tiered recovery O(metadata +
// columns).
func openRun(path string, section []byte) (*tierRun, error) {
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
	if r.live < 0 || r.live > r.count {
		return fail(fmt.Errorf("store: run %s counts %d live of %d records", path, r.live, r.count))
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
	if section == nil {
		section = make([]byte, r.spatialLen)
		if _, err := f.ReadAt(section, r.recordsLen); err != nil {
			return fail(fmt.Errorf("store: reading run spatial columns %s: %w", path, err))
		}
	}
	if int64(len(section)) != r.spatialLen || crc32.ChecksumIEEE(section) != binary.LittleEndian.Uint32(footer[92:]) {
		return fail(fmt.Errorf("store: run %s spatial checksum mismatch", path))
	}
	if r.leaves, r.runColumns, err = parseSpatial(meta[bloomLen+idxLen:], section, r.live, r.mbr); err != nil {
		return fail(fmt.Errorf("store: run %s: %w", path, err))
	}
	r.refs.Store(1)
	return r, nil
}

// parseSpatial decodes the leaf directory block dir and the spatial
// columns section of a run holding live indexed records inside mbr: one
// MBR per spatial leaf, and the columns, whose id ends must tile the id
// block and whose positions must lie inside their leaf's MBR and mbr.
func parseSpatial(dir, section []byte, live int64, mbr geo.Rect) (leaves []geo.Rect, cols runColumns, err error) {
	if live < 0 || live > int64(len(section))/runSlotSize {
		return nil, runColumns{}, fmt.Errorf("spatial columns of %d bytes cannot hold %d live records", len(section), live)
	}
	want := (live + runLeafEntries - 1) / runLeafEntries
	if int64(len(dir)) != want*runLeafDirEntrySize {
		return nil, runColumns{}, fmt.Errorf("leaf directory of %d bytes does not describe the %d leaves of %d live records", len(dir), want, live)
	}
	n := int(live)
	xs, ys, ends, ids := section[:8*n], section[8*n:16*n], section[16*n:20*n], section[20*n:]
	leaves = make([]geo.Rect, want)
	cols = runColumns{pos: make([]geo.Point, n), idEnd: make([]uint32, n)}
	var prev uint32
	for s := 0; s < n; s++ {
		if s%runLeafEntries == 0 {
			leaves[s/runLeafEntries] = getRect(dir[s/runLeafEntries*runLeafDirEntrySize:])
		}
		p := geo.Pt(math.Float64frombits(binary.LittleEndian.Uint64(xs[8*s:])), math.Float64frombits(binary.LittleEndian.Uint64(ys[8*s:])))
		if leaf := leaves[s/runLeafEntries]; !leaf.ContainsClosed(p) || !mbr.ContainsClosed(p) {
			return nil, runColumns{}, fmt.Errorf("slot %d at %v outside its leaf's bounds %v or the run's %v", s, p, leaf, mbr)
		}
		end := binary.LittleEndian.Uint32(ends[4*s:])
		if end < prev || int64(end) > int64(len(ids)) {
			return nil, runColumns{}, fmt.Errorf("slot %d's id ends at %d, past the %d-byte id block or before its predecessor's %d", s, end, len(ids), prev)
		}
		cols.pos[s], cols.idEnd[s], prev = p, end, end
	}
	if int(prev) != len(ids) {
		return nil, runColumns{}, fmt.Errorf("ids add up to %d bytes, the id block holds %d", prev, len(ids))
	}
	cols.ids = string(ids)
	return leaves, cols, nil
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

// metaBytes is the run's resident footprint besides the file handle:
// bloom filter, sparse index (an id and a 24-byte entry each), leaf
// directory (an MBR per leaf), spatial columns (a position, an id end and
// the id per live record) and object table (a pointer per live record).
func (r *tierRun) metaBytes() int64 {
	n := int64(len(r.bloom.bits)) + int64(len(r.leaves))*32 + int64(len(r.pos))*16 + int64(len(r.idEnd))*4 + int64(len(r.ids)) + int64(len(r.objs))*8
	for _, e := range r.sparse {
		n += int64(len(e.oid)) + 24
	}
	return n
}

// runScratch holds the block buffer of one point lookup, pooled so that a
// lookup allocates only for the record it returns.
type runScratch struct {
	block []byte // grown on demand
}

var runScratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// runHits is a range read's batch of one leaf's hits, pooled: the index
// items handed on.
type runHits struct {
	items [runLeafEntries]spatial.Item
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
