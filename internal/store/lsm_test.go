package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/spatial"
)

// ---------------------------------------------------------------------------
// Bloom filter.

func TestBloomFilterNoFalseNegatives(t *testing.T) {
	b := newBloomFilter(1000, 10)
	for i := 0; i < 1000; i++ {
		b.addHash(bloomHash(fmt.Sprintf("key-%d", i)))
	}
	for i := 0; i < 1000; i++ {
		if !b.mayContain(fmt.Sprintf("key-%d", i)) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
	// False-positive rate should be in the ballpark of the 10-bits-per-key
	// design point (~1%); 10% is far outside any plausible regression.
	fp := 0
	for i := 0; i < 10_000; i++ {
		if b.mayContain(fmt.Sprintf("absent-%d", i)) {
			fp++
		}
	}
	if fp > 1000 {
		t.Fatalf("false-positive rate %d/10000 way above the 10-bit design point", fp)
	}
}

func TestBloomFilterMarshalRoundtrip(t *testing.T) {
	b := newBloomFilter(100, 10)
	for i := 0; i < 100; i++ {
		b.addHash(bloomHash(fmt.Sprintf("k%d", i)))
	}
	got, err := unmarshalBloom(b.marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.nbits != b.nbits || got.k != b.k {
		t.Fatalf("roundtrip shape: got (%d,%d) want (%d,%d)", got.nbits, got.k, b.nbits, b.k)
	}
	for i := 0; i < 100; i++ {
		if !got.mayContain(fmt.Sprintf("k%d", i)) {
			t.Fatalf("roundtrip lost k%d", i)
		}
	}
}

// ---------------------------------------------------------------------------
// Run files.

func testRunRecords(n int) []runRecord {
	base := time.Unix(5000, 0)
	recs := make([]runRecord, 0, n)
	for i := 0; i < n; i++ {
		id := core.OID(fmt.Sprintf("obj-%05d", i))
		if i%7 == 3 {
			recs = append(recs, runRecord{s: core.Sighting{OID: id}, tombstone: true})
			continue
		}
		recs = append(recs, runRecord{
			s: core.Sighting{
				OID: id, T: base.Add(time.Duration(i) * time.Second),
				Pos: geo.Pt(float64(i%100), float64(i/100)), SensAcc: 5,
			},
			expires: base.Add(time.Duration(i) * time.Minute),
		})
	}
	return recs
}

func writeTestRun(t *testing.T, dir string, shard int, seq uint64, recs []runRecord) *tierRun {
	t.Helper()
	name := runFileName(shard, seq)
	w, err := newRunWriter(dir, name, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.add(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.finish(); err != nil {
		t.Fatal(err)
	}
	r, err := openRun(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunRoundtrip(t *testing.T) {
	dir := t.TempDir()
	recs := testRunRecords(500)
	r := writeTestRun(t, dir, 0, 1, recs)
	defer r.retire(false)

	if r.count != int64(len(recs)) {
		t.Fatalf("count = %d, want %d", r.count, len(recs))
	}
	wantLive := 0
	for _, rec := range recs {
		if !rec.tombstone {
			wantLive++
		}
	}
	if r.live != int64(wantLive) {
		t.Fatalf("live = %d, want %d", r.live, wantLive)
	}
	if r.minOID != recs[0].s.OID || r.maxOID != recs[len(recs)-1].s.OID {
		t.Fatalf("key range [%s, %s]", r.minOID, r.maxOID)
	}

	// Point gets: every record, plus misses inside and outside the range.
	for _, want := range recs {
		got, ok, err := r.get(want.s.OID)
		if err != nil || !ok {
			t.Fatalf("get(%s): %v, %v", want.s.OID, ok, err)
		}
		if got.tombstone != want.tombstone {
			t.Fatalf("get(%s) tombstone = %v", want.s.OID, got.tombstone)
		}
		if !want.tombstone && (got.s != want.s || !got.expires.Equal(want.expires)) {
			t.Fatalf("get(%s) = %+v, want %+v", want.s.OID, got, want)
		}
	}
	if _, ok, _ := r.get("obj-00000x"); ok {
		t.Fatal("get of absent key reported present")
	}

	// Full scan preserves order and content.
	i := 0
	err := r.scan(func(rec runRecord) bool {
		if rec.s.OID != recs[i].s.OID {
			t.Fatalf("scan[%d] = %s, want %s", i, rec.s.OID, recs[i].s.OID)
		}
		i++
		return true
	})
	if err != nil || i != len(recs) {
		t.Fatalf("scan: %v after %d records", err, i)
	}

	// The MBR covers every live position.
	for _, rec := range recs {
		if !rec.tombstone && !r.mbr.ContainsClosed(rec.s.Pos) {
			t.Fatalf("MBR %v misses %v", r.mbr, rec.s.Pos)
		}
	}

	// Spatial block: every live record sits in exactly one leaf, inside
	// that leaf's directory MBR, byte-equal to its copy in the id-ordered
	// records region. Tombstones are not indexed.
	if want := (wantLive + runLeafEntries - 1) / runLeafEntries; len(r.leaves) != want {
		t.Fatalf("%d leaves for %d live records, want %d", len(r.leaves), wantLive, want)
	}
	data, err := os.ReadFile(r.path)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[core.OID][]byte)
	for pos := 0; pos < int(r.recordsLen); {
		_, key, next, err := splitRunRecord(data[:r.recordsLen], pos)
		if err != nil {
			t.Fatal(err)
		}
		byID[core.OID(key)] = data[pos:next]
		pos = next
	}
	indexed := make(map[core.OID]int)
	var buf []byte
	for i := range r.leaves {
		entries, err := r.readLeaf(i, &buf, nil)
		if err != nil {
			t.Fatalf("readLeaf(%d): %v", i, err)
		}
		if i < len(r.leaves)-1 && len(entries) != runLeafEntries {
			t.Fatalf("inner leaf %d holds %d entries", i, len(entries))
		}
		for j, e := range entries {
			if !r.leaves[i].ContainsClosed(e.pos) {
				t.Fatalf("leaf %d MBR %v misses its entry %v", i, r.leaves[i], e.pos)
			}
			rec, _, err := decodeRunRecord(e.rec, 0)
			if err != nil || rec.s.Pos != e.pos {
				t.Fatalf("leaf %d entry %d at %v decodes to %+v (%v)", i, j, e.pos, rec, err)
			}
			if !bytes.Equal(e.rec, byID[rec.s.OID]) {
				t.Fatalf("leaf %d entry %d is %x, its id-ordered copy %x", i, j, e.rec, byID[rec.s.OID])
			}
			indexed[rec.s.OID]++
		}
	}
	for _, rec := range recs {
		if want := map[bool]int{true: 0, false: 1}[rec.tombstone]; indexed[rec.s.OID] != want {
			t.Fatalf("%s (tombstone %v) appears in %d leaves, want %d", rec.s.OID, rec.tombstone, indexed[rec.s.OID], want)
		}
	}
	if err := r.verify(); err != nil {
		t.Fatalf("verify of a fresh run: %v", err)
	}
	// The directory and the object table a flush gives the run are
	// resident metadata and must be accounted as such.
	r.setObj(0, &object{})
	if min := int64(len(r.bloom.bits)+len(r.leaves)*runLeafDirEntrySize) + r.live*8; r.metaBytes() < min {
		t.Fatalf("metaBytes %d below bloom + leaf directory + object table (%d)", r.metaBytes(), min)
	}
}

func TestRunWriterRejectsUnsortedKeys(t *testing.T) {
	dir := t.TempDir()
	w, err := newRunWriter(dir, runFileName(0, 1), 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.add(runRecord{s: core.Sighting{OID: "b"}}); err != nil {
		t.Fatal(err)
	}
	if err := w.add(runRecord{s: core.Sighting{OID: "a"}}); err == nil {
		t.Fatal("out-of-order add accepted")
	}
	w.abort()
	left, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(left) != 0 {
		t.Fatalf("abort left %v", left)
	}
}

func TestOpenRunDetectsMetaCorruption(t *testing.T) {
	dir := t.TempDir()
	r := writeTestRun(t, dir, 0, 1, testRunRecords(50))
	path := r.path
	r.retire(false)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit inside the bloom/index metadata (after the records,
	// before the footer) — open must fail on the metadata checksum.
	data[len(data)-runFooterSize-3] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openRun(path); err == nil {
		t.Fatal("openRun accepted corrupted metadata")
	}
}

// patchRun rewrites the run file at path with edit applied to its bytes.
func patchRun(t *testing.T, path string, edit func(data []byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRunSpatialCorruption is the corruption table of the v3 spatial
// block: whatever is damaged, the run is refused at open, fails verify, or
// yields a counted-and-skipped leaf — never a panic or a read outside the
// leaf.
func TestRunSpatialCorruption(t *testing.T) {
	dir := t.TempDir()
	r := writeTestRun(t, dir, 0, 1, testRunRecords(200))
	path, size := r.path, r.size
	spatialOff, spatialLen := r.recordsLen, r.spatialLen
	dirOff := size - runFooterSize - int64(len(r.leaves))*runLeafDirEntrySize
	footerOff := size - runFooterSize
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, x3 := leafRecordAt(t, pristine, r, 0, 3)
	r.retire(false)
	restore := func() {
		t.Helper()
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("truncation", func(t *testing.T) {
		defer restore()
		// Every cut inside the spatial leaves, the meta blocks and the
		// footer loses the footer: open must refuse, whatever bytes end
		// up in its place.
		for cut := spatialOff; cut < size; cut++ {
			if err := os.WriteFile(path, pristine[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if r, err := openRun(path); err == nil {
				r.retire(false)
				t.Fatalf("openRun accepted a run truncated at %d of %d", cut, size)
			}
		}
	})

	t.Run("directory bytes", func(t *testing.T) {
		defer restore()
		for off := dirOff; off < footerOff; off += 5 {
			patchRun(t, path, func(d []byte) []byte { d[off] ^= 0x10; return d })
			if r, err := openRun(path); err == nil {
				r.retire(false)
				t.Fatalf("openRun accepted a flipped directory byte at %d", off)
			}
			restore()
		}
	})

	t.Run("footer length mismatch", func(t *testing.T) {
		defer restore()
		// Spatial length shrunk (and the records region grown to keep the
		// sum), then the directory length off by one leaf.
		for _, field := range []int64{24, 48} {
			patchRun(t, path, func(d []byte) []byte {
				f := d[footerOff:]
				switch field {
				case 24:
					putU64(f[24:], uint64(spatialLen-8))
					putU64(f[0:], uint64(spatialOff+8))
				case 48:
					putU64(f[48:], getU64(f[48:])-runLeafDirEntrySize)
					putU64(f[40:], getU64(f[40:])+runLeafDirEntrySize)
				}
				return d
			})
			if r, err := openRun(path); err == nil {
				r.retire(false)
				t.Fatalf("openRun accepted inconsistent footer field at %d", field)
			}
			restore()
		}
	})

	t.Run("spatial checksum on full scan", func(t *testing.T) {
		defer restore()
		// The low mantissa byte of a coordinate: the record stays inside
		// its leaf's bounds, so only the region checksum can tell.
		patchRun(t, path, func(d []byte) []byte { d[x3] ^= 0x01; return d })
		r, err := openRun(path)
		if err != nil {
			t.Fatalf("open reads no spatial leaf, yet failed: %v", err)
		}
		defer r.retire(false)
		if err := r.verify(); err == nil || !strings.Contains(err.Error(), "spatial checksum") {
			t.Fatalf("verify = %v, want spatial checksum mismatch", err)
		}
	})

	// Leaf extents the directory's checksum vouches for, yet which do not
	// tile the spatial region: refused at open, by the directory's own
	// checks.
	for name, c := range map[string]struct {
		extent func(old uint32) uint32
		want   string
	}{
		"extent past the spatial region": {func(uint32) uint32 { return uint32(spatialLen) + 1 }, "past"},
		"extents off the region length":  {func(old uint32) uint32 { return old - 1 }, "add up"},
	} {
		t.Run(name, func(t *testing.T) {
			defer restore()
			patchRun(t, path, func(d []byte) []byte {
				e := d[dirOff+32:]
				binary.LittleEndian.PutUint32(e, c.extent(binary.LittleEndian.Uint32(e)))
				binary.LittleEndian.PutUint32(d[footerOff+96:], crc32.ChecksumIEEE(d[spatialOff+spatialLen:footerOff]))
				return d
			})
			r, err := openRun(path)
			if err == nil {
				r.retire(false)
				t.Fatal("openRun accepted leaf extents that do not tile the spatial region")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("openRun = %v, want the directory's extent check (%q)", err, c.want)
			}
		})
	}

	// Damage inside a leaf, under a live store: the leaf is skipped by both
	// spatial query kinds and counted, and the other leaves still answer.
	for name, edit := range map[string]func(t *testing.T, d []byte, r *tierRun){
		// The footer's live count one short: the last leaf holds one record
		// more than the directory's share for it.
		"wrong entry count": func(t *testing.T, d []byte, r *tierRun) {
			f := d[r.size-runFooterSize:]
			putU64(f[16:], getU64(f[16:])-1)
		},
		"tombstone in a leaf": func(t *testing.T, d []byte, r *tierRun) {
			flags, _ := leafRecordAt(t, d, r, 1, 5)
			d[flags] |= runFlagTombstone
		},
		"record outside the leaf's MBR": func(t *testing.T, d []byte, r *tierRun) {
			_, x := leafRecordAt(t, d, r, 1, 5)
			putU64(d[x:], math.Float64bits(1e9))
		},
	} {
		t.Run(name, func(t *testing.T) {
			db, live := damagedLeafStore(t, edit)
			world := geo.R(-1, -1, 1000, 1000)
			n := 0
			db.SearchArea(world, func(core.Sighting) bool { n++; return true })
			if n >= live || n < live-runLeafEntries {
				t.Fatalf("damaged leaf: %d of %d answered, want the other leaves' records", n, live)
			}
			errs := db.TierStats().ReadErrors
			if errs == 0 {
				t.Fatal("damaged leaf not counted on a range read")
			}
			db.NearestFunc(geo.Pt(0, 0), func(core.Sighting, float64) bool { return true })
			if db.TierStats().ReadErrors == errs {
				t.Fatal("damaged leaf not counted on a nearest-neighbor pass")
			}
		})
	}
}

// damagedLeafStore returns a one-shard tiered store whose only run holds
// testRunRecords' live records, reopened after edit damaged its file, and
// the number of those records.
func damagedLeafStore(t *testing.T, edit func(t *testing.T, d []byte, r *tierRun)) (*ShardedSightingDB, int) {
	t.Helper()
	base := time.Unix(1000, 0)
	db, _ := tieredPairBudget(t, 1, 64<<20, 0, func() time.Time { return base })
	live := 0
	for _, rec := range testRunRecords(200) {
		if !rec.tombstone {
			db.Put(rec.s)
			live++
		}
	}
	flushAll(t, db)
	sh := db.shards[0]
	old := sh.tier.runs[0]
	patchRun(t, old.path, func(d []byte) []byte { edit(t, d, old); return d })
	r, err := openRun(old.path)
	if err != nil {
		t.Fatalf("a run damaged inside a leaf must still open: %v", err)
	}
	sh.mu.Lock()
	sh.tier.runs[0] = r
	sh.mu.Unlock()
	old.retire(false)
	t.Cleanup(func() { r.retire(false) })
	return db, live
}

// leafRecordAt returns the file offsets, in r's file bytes d, of record j
// of spatial leaf i: its flags byte and its X coordinate.
func leafRecordAt(t *testing.T, d []byte, r *tierRun, i, j int) (flags, x int64) {
	t.Helper()
	start := r.recordsLen + r.leafAt[i]
	leaf := d[start : r.recordsLen+r.leafAt[i+1]]
	for k, pos := 0, 0; ; k++ {
		_, _, next, err := splitRunRecord(leaf, pos)
		if err != nil {
			t.Fatalf("leaf %d record %d: %v", i, k, err)
		}
		if k == j {
			return start + int64(pos), start + int64(next-runLivePayload+8)
		}
		pos = next
	}
}

func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func getU64(b []byte) uint64    { return binary.LittleEndian.Uint64(b) }

// TestOpenRunRefusesV1 pins the no-fallback rule: a run of an older
// format — version 1 (92-byte footer, no spatial block) or version 2
// (offset-addressed spatial leaves) — is refused with its version named.
func TestOpenRunRefusesV1(t *testing.T) {
	for _, old := range []struct {
		version    uint32
		footerSize int
	}{{1, 92}, {2, 112}} {
		t.Run(fmt.Sprintf("v%d", old.version), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), runFileName(0, 1))
			data := make([]byte, 300) // records + meta stand-ins, then the footer
			footer := data[len(data)-old.footerSize:]
			binary.LittleEndian.PutUint32(footer[old.footerSize-12:], old.version)
			binary.LittleEndian.PutUint64(footer[old.footerSize-8:], runMagic)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := openRun(path)
			if want := fmt.Sprintf("version %d", old.version); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("openRun(v%d file) = %v, want an error naming %s", old.version, err, want)
			}
		})
	}
}

// TestRunGetAllocs pins the cold-get allocation budget: the block buffer
// is pooled and skipped records are compared in place, so a hit allocates
// only the returned id and a bloom-admitted miss nothing.
func TestRunGetAllocs(t *testing.T) {
	r := writeTestRun(t, t.TempDir(), 0, 1, testRunRecords(500))
	defer r.retire(false)
	hit, miss := core.OID("obj-00222"), core.OID("obj-00222x") // mid-block; absent but inside the key range
	if _, ok, err := r.get(hit); !ok || err != nil {
		t.Fatalf("get(%s) = %v, %v", hit, ok, err)
	}
	if _, ok, err := r.get(miss); ok || err != nil {
		t.Fatalf("get(%s) = %v, %v", miss, ok, err)
	}
	if n := testing.AllocsPerRun(200, func() { r.get(hit) }); n > 2 {
		t.Fatalf("get hit allocates %.0f times, want <= 2", n)
	}
	if n := testing.AllocsPerRun(200, func() { r.get(miss) }); n > 0 {
		t.Fatalf("get miss allocates %.0f times, want 0", n)
	}
}

// TestTierSearchAllocs pins the cold range read's allocation budget: the
// leaf buffer and the batches are pooled and records are decoded out of
// the buffer in place, so a SearchBuckets answered from a run allocates
// the returned ids and a constant, however many leaves and records
// outside the rectangle it passes over.
func TestTierSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	base := time.Unix(1000, 0)
	db, _ := tieredPairBudget(t, 1, 64<<20, 0, func() time.Time { return base })
	for _, rec := range testRunRecords(500) {
		if !rec.tombstone {
			db.Put(rec.s)
		}
	}
	flushAll(t, db)
	rect := geo.R(20, 0.5, 60, 3.5) // rows 1-3 of the 100 x 5 grid, a slice of each
	hits := 0
	visit := func(items []spatial.Item, _ geo.Rect, inside bool) bool {
		for _, it := range items {
			if inside || rect.ContainsClosed(it.Pos) {
				hits++
			}
		}
		return true
	}
	leafReads := db.TierStats().LeafReads
	db.SearchBuckets(rect, visit)
	want, read := hits, db.TierStats().LeafReads-leafReads
	if want == 0 || read < 2 || int64(want) >= read*runLeafEntries {
		t.Fatalf("%d hits from %d leaves: the query must pass over records it does not return", want, read)
	}
	const constant = 2
	if n := testing.AllocsPerRun(100, func() { db.SearchBuckets(rect, visit) }); n > float64(want+constant) {
		t.Fatalf("cold SearchBuckets of %d hits allocates %.1f times, want <= %d", want, n, want+constant)
	}
	if st := db.TierStats(); st.ReadErrors != 0 {
		t.Fatalf("%d read errors on an undamaged run", st.ReadErrors)
	}
}

// FuzzRunSpatial feeds arbitrary bytes to the leaf-directory parser and
// the leaf decoder: they must reject or decode, never panic or index out
// of range, and what they accept must be what they promise.
func FuzzRunSpatial(f *testing.F) {
	dir := f.TempDir()
	name := runFileName(0, 1)
	w, err := newRunWriter(dir, name, 10)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range testRunRecords(150) {
		if err := w.add(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.finish(); err != nil {
		f.Fatal(err)
	}
	r, err := openRun(filepath.Join(dir, name))
	if err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(r.path)
	if err != nil {
		f.Fatal(err)
	}
	dirOff := r.size - runFooterSize - int64(len(r.leaves))*runLeafDirEntrySize
	f.Add(data[dirOff:r.size-runFooterSize], uint16(r.live), uint32(r.spatialLen))
	f.Add(data[r.recordsLen:r.recordsLen+r.leafAt[1]], uint16(runLeafEntries), uint32(r.leafAt[1]))
	f.Add([]byte{}, uint16(0), uint32(0))
	r.retire(false)

	f.Fuzz(func(t *testing.T, b []byte, live uint16, spatialLen uint32) {
		if leaves, leafAt, err := parseLeafDir(b, int64(live), int64(spatialLen)); err == nil {
			if want := (int(live) + runLeafEntries - 1) / runLeafEntries; len(leaves) != want || len(leafAt) != want+1 {
				t.Fatalf("parseLeafDir returned %d leaves (%d bounds) for %d live records", len(leaves), len(leafAt), live)
			}
			for i := range leaves {
				if leafAt[i] > leafAt[i+1] {
					t.Fatalf("leaf %d spans [%d, %d)", i, leafAt[i], leafAt[i+1])
				}
			}
			if leafAt[0] != 0 || leafAt[len(leaves)] != int64(spatialLen) {
				t.Fatalf("leaves tile [%d, %d), the region is %d bytes", leafAt[0], leafAt[len(leaves)], spatialLen)
			}
		}
		n := min(int(live), runLeafEntries)
		mbr := geo.R(0, 0, 100, 100)
		if entries, err := decodeLeaf(nil, b, mbr, n); err == nil {
			if len(entries) != n {
				t.Fatalf("decodeLeaf returned %d entries, want %d", len(entries), n)
			}
			covered := 0
			for j, e := range entries {
				rec, next, err := decodeRunRecord(e.rec, 0)
				if err != nil || next != len(e.rec) || rec.tombstone || rec.s.Pos != e.pos || !mbr.ContainsClosed(e.pos) {
					t.Fatalf("decodeLeaf passed entry %d = %+v (%+v, %v)", j, e, rec, err)
				}
				covered += len(e.rec)
			}
			if covered != len(b) {
				t.Fatalf("decodeLeaf's %d records cover %d of %d bytes", len(entries), covered, len(b))
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Tiered store behavior against the brute-force oracle.

// tieredPair builds a tiered sharded store (tiny memtable budget so
// flushes happen readily) and the brute-force oracle, both on the same
// clock.
func tieredPair(t *testing.T, shards int, ttl time.Duration, clock func() time.Time) (*ShardedSightingDB, *oracleStore) {
	t.Helper()
	return tieredPairBudget(t, shards, 1, ttl, clock)
}

// tieredPairBudget is tieredPair with an explicit memtable budget; the
// scripted tests pass a large one so that only their own flushAll calls
// cut runs.
func tieredPairBudget(t *testing.T, shards int, budget int64, ttl time.Duration, clock func() time.Time) (*ShardedSightingDB, *oracleStore) {
	t.Helper()
	tiered := NewShardedSightingDB(WithTTL(ttl), WithClock(clock), WithSightingWAL(tempShardedWAL(t, shards)),
		WithTiering(TierConfig{MemtableBytes: budget, MaxRuns: 3}))
	if err := tiered.Recover(); err != nil {
		t.Fatal(err)
	}
	return tiered, newOracleTTL(ttl, clock)
}

// tempShardedWAL opens a sighting log of shards segments in a fresh
// temporary directory, closed when the test ends. A tiered store keeps its
// runs beside the segments.
func tempShardedWAL(t testing.TB, shards int) *ShardedWAL {
	t.Helper()
	wal, err := OpenShardedWAL(t.TempDir(), shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wal.Close() })
	return wal
}

// storeState snapshots a store's (or the oracle's) full logical content.
func storeState(db sightingQueries) map[core.OID]core.Sighting {
	out := make(map[core.OID]core.Sighting)
	db.ForEach(func(s core.Sighting) bool {
		out[s.OID] = s
		return true
	})
	return out
}

func diffStates(t *testing.T, label string, tiered, oracle map[core.OID]core.Sighting) {
	t.Helper()
	for id, want := range oracle {
		got, ok := tiered[id]
		if !ok {
			t.Fatalf("%s: tiered store lost %s", label, id)
		}
		if got.Pos != want.Pos || !got.T.Equal(want.T) || got.SensAcc != want.SensAcc {
			t.Fatalf("%s: %s diverged: tiered %+v oracle %+v", label, id, got, want)
		}
	}
	for id := range tiered {
		if _, ok := oracle[id]; !ok {
			t.Fatalf("%s: tiered store resurrected %s", label, id)
		}
	}
}

func TestTieredFlushAndLookup(t *testing.T) {
	base := time.Unix(1000, 0)
	tiered, oracle := tieredPair(t, 4, 0, func() time.Time { return base })

	n := 400
	for i := 0; i < n; i++ {
		s := core.Sighting{
			OID: core.OID(fmt.Sprintf("o-%03d", i)), T: base,
			Pos: geo.Pt(float64(i%20)*10, float64(i/20)*10), SensAcc: 5,
		}
		tiered.Put(s)
		oracle.Put(s)
	}
	if err := tiered.MaintainTiers(); err != nil {
		t.Fatal(err)
	}
	st := tiered.TierStats()
	if st.Runs == 0 || st.Flushes == 0 {
		t.Fatalf("no flush happened: %+v", st)
	}

	// Cold gets hit the runs.
	for i := 0; i < n; i++ {
		id := core.OID(fmt.Sprintf("o-%03d", i))
		got, ok := tiered.Get(id)
		want, _ := oracle.Get(id)
		if !ok || got.Pos != want.Pos {
			t.Fatalf("Get(%s) = %+v, %v", id, got, ok)
		}
	}
	// Cold remove plants a tombstone over the run-resident version.
	if !removed(tiered, "o-007") {
		t.Fatal("cold Remove failed")
	}
	oracle.Remove("o-007")
	if _, ok := tiered.Get("o-007"); ok {
		t.Fatal("removed record still visible")
	}
	if removed(tiered, "o-007") {
		t.Fatal("double Remove succeeded")
	}

	// Range queries see disk-resident records.
	countIn := func(db sightingQueries, r geo.Rect) int {
		n := 0
		db.SearchArea(r, func(core.Sighting) bool { n++; return true })
		return n
	}
	for _, r := range []geo.Rect{geo.R(0, 0, 55, 55), geo.R(100, 100, 200, 200), geo.R(-5, -5, 500, 500)} {
		if got, want := countIn(tiered, r), countIn(oracle, r); got != want {
			t.Fatalf("SearchArea(%v) = %d, oracle %d", r, got, want)
		}
	}

	// Nearest-neighbor parity (distances must agree; ids may tie).
	for _, p := range []geo.Point{geo.Pt(0, 0), geo.Pt(95, 95), geo.Pt(50, 120)} {
		var gotD, wantD []float64
		tiered.NearestFunc(p, func(_ core.Sighting, d float64) bool {
			gotD = append(gotD, d)
			return len(gotD) < 5
		})
		oracle.NearestFunc(p, func(_ core.Sighting, d float64) bool {
			wantD = append(wantD, d)
			return len(wantD) < 5
		})
		if len(gotD) != len(wantD) {
			t.Fatalf("NearestFunc(%v) yielded %d, oracle %d", p, len(gotD), len(wantD))
		}
		for i := range gotD {
			if math.Abs(gotD[i]-wantD[i]) > 1e-9 {
				t.Fatalf("NearestFunc(%v)[%d] = %g, oracle %g", p, i, gotD[i], wantD[i])
			}
		}
	}

	diffStates(t, "after flush", storeState(tiered), storeState(oracle))
}

func TestTieredCompactionDropsShadowedVersions(t *testing.T) {
	base := time.Unix(1000, 0)
	tiered, oracle := tieredPair(t, 1, 0, func() time.Time { return base })

	// Several generations of the same ids: each round flushes a run, so
	// compaction has overlapping runs full of superseded versions.
	for round := 0; round < 5; round++ {
		for i := 0; i < 80; i++ {
			s := core.Sighting{
				OID: core.OID(fmt.Sprintf("o-%02d", i)), T: base.Add(time.Duration(round) * time.Second),
				Pos: geo.Pt(float64(round*100+i), 0), SensAcc: 5,
			}
			tiered.Put(s)
			oracle.Put(s)
		}
		if err := tiered.MaintainTiers(); err != nil {
			t.Fatal(err)
		}
	}
	// Remove a few, flush the tombstones, then compact everything.
	for i := 0; i < 10; i++ {
		id := core.OID(fmt.Sprintf("o-%02d", i))
		if !removed(tiered, id) {
			t.Fatalf("Remove(%s)", id)
		}
		oracle.Remove(id)
	}
	for i := 0; i < 3; i++ {
		if err := tiered.MaintainTiers(); err != nil {
			t.Fatal(err)
		}
	}
	st := tiered.TierStats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction ran: %+v", st)
	}
	if st.Runs > 3 {
		t.Fatalf("compaction left %d runs (MaxRuns 3)", st.Runs)
	}
	// After a full merge the survivors hold exactly one version per live id.
	if st.Runs == 1 && st.DiskLive != 70 {
		t.Fatalf("compacted run holds %d live records, want 70", st.DiskLive)
	}
	diffStates(t, "after compaction", storeState(tiered), storeState(oracle))
}

func TestTieredExpiry(t *testing.T) {
	base := time.Unix(1000, 0)
	var mu sync.Mutex
	now := base
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	tiered, oracle := tieredPair(t, 2, 10*time.Second, clock)

	for i := 0; i < 100; i++ {
		s := core.Sighting{OID: core.OID(fmt.Sprintf("o-%02d", i)), T: base, Pos: geo.Pt(float64(i), 0), SensAcc: 5}
		tiered.Put(s)
		oracle.Put(s)
	}
	if err := tiered.MaintainTiers(); err != nil {
		t.Fatal(err)
	}
	// Re-put half, unchanged, so their lease outlives the jump past the
	// original TTL: a run-resident record is refreshed like any other.
	mu.Lock()
	now = base.Add(8 * time.Second)
	mu.Unlock()
	for i := 0; i < 50; i++ {
		id := core.OID(fmt.Sprintf("o-%02d", i))
		s, ok := tiered.Get(id)
		if !ok {
			t.Fatalf("Get(%s) — run-resident record not found", id)
		}
		tiered.Put(s)
		oracle.Put(s)
	}
	mu.Lock()
	now = base.Add(15 * time.Second)
	mu.Unlock()

	// The other half is expired — including the run-resident copies.
	exp := tiered.Expired()
	expSet := make(map[core.OID]bool, len(exp))
	for _, id := range exp {
		expSet[id] = true
	}
	for i := 50; i < 100; i++ {
		if !expSet[core.OID(fmt.Sprintf("o-%02d", i))] {
			t.Fatalf("Expired missed run-resident o-%02d", i)
		}
	}
	for i := 0; i < 50; i++ {
		if expSet[core.OID(fmt.Sprintf("o-%02d", i))] {
			t.Fatalf("Expired reported refreshed o-%02d", i)
		}
	}
	// Tear them down the way the janitor does.
	for _, id := range exp {
		if _, _, ok, _ := tiered.Deregister(id, true); !ok {
			t.Fatalf("Deregister(%s, expired)", id)
		}
	}
	for _, id := range oracle.Expired() {
		oracle.RemoveExpiredDelta(id)
	}
	diffStates(t, "after expiry sweep", storeState(tiered), storeState(oracle))
}

// TestTieredOracleParity is the randomized differential test: a tiered
// store and the brute-force oracle receive the same stream of
// puts, removes, same-position refreshes and expiry sweeps, with tier
// maintenance interleaved, and must agree on the full logical state at
// every checkpoint.
func TestTieredOracleParity(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 12
	}
	base := time.Unix(1000, 0)
	var mu sync.Mutex
	now := base
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	tiered, oracle := tieredPair(t, 3, time.Minute, clock)

	const population = 300
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < rounds; round++ {
		mu.Lock()
		now = now.Add(3 * time.Second)
		stamp := now
		mu.Unlock()
		for op := 0; op < 150; op++ {
			id := core.OID(fmt.Sprintf("obj-%03d", rng.Intn(population)))
			switch k := rng.Intn(10); {
			case k < 6: // put / move
				s := core.Sighting{OID: id, T: stamp, Pos: geo.Pt(rng.Float64()*1000, rng.Float64()*1000), SensAcc: 5}
				tiered.Put(s)
				oracle.Put(s)
			case k < 8: // remove (possibly cold, possibly absent)
				got := removed(tiered, id)
				want := oracle.Remove(id)
				if got != want {
					t.Fatalf("round %d: Remove(%s) = %v, oracle %v", round, id, got, want)
				}
			default: // refresh: re-put the object at its stored position
				got, gok := tiered.Get(id)
				want, wok := oracle.Get(id)
				if gok != wok || got.Pos != want.Pos || !got.T.Equal(want.T) {
					t.Fatalf("round %d: Get(%s) = %v %v, oracle %v %v", round, id, got, gok, want, wok)
				}
				if gok {
					tiered.Put(got)
					oracle.Put(want)
				}
			}
		}
		switch round % 4 {
		case 0:
			if err := tiered.MaintainTiers(); err != nil {
				t.Fatal(err)
			}
		case 1: // expiry sweep through the janitor's teardown path
			for _, id := range tiered.Expired() {
				tiered.Deregister(id, true)
			}
			for _, id := range oracle.Expired() {
				oracle.RemoveExpiredDelta(id)
			}
		}

		// Checkpoint: full-state parity, spatial result-set parity through
		// the runs' leaves, plus point parity on a sample.
		diffStates(t, fmt.Sprintf("round %d", round), storeState(tiered), storeState(oracle))
		for i := 0; i < 6; i++ {
			x, y, side := rng.Float64()*900, rng.Float64()*900, 20+rng.Float64()*300
			assertSpatialParity(t, fmt.Sprintf("round %d", round), tiered, oracle,
				geo.R(x, y, x+side, y+side), geo.Pt(rng.Float64()*1000, rng.Float64()*1000))
		}
		for i := 0; i < 40; i++ {
			id := core.OID(fmt.Sprintf("obj-%03d", rng.Intn(population)))
			got, gok := tiered.Get(id)
			want, wok := oracle.Get(id)
			if gok != wok || (gok && (got.Pos != want.Pos || !got.T.Equal(want.T))) {
				t.Fatalf("round %d: Get(%s) = %+v,%v oracle %+v,%v", round, id, got, gok, want, wok)
			}
		}
	}
	st := tiered.TierStats()
	if st.Flushes < 3 || st.Compactions < 1 || st.Runs == 0 || st.LeafReads == 0 {
		t.Fatalf("parity test never exercised the disk tier enough (want >= 3 flushes, >= 1 compaction, leaf reads): %+v", st)
	}
	if st.ReadErrors != 0 {
		t.Fatalf("%d read errors on undamaged runs", st.ReadErrors)
	}
}

// searchSet collects SearchArea's answer as id → position, failing on a
// duplicate id.
func searchSet(t *testing.T, label string, db sightingQueries, r geo.Rect) map[core.OID]geo.Point {
	t.Helper()
	out := make(map[core.OID]geo.Point)
	db.SearchArea(r, func(s core.Sighting) bool {
		if _, dup := out[s.OID]; dup {
			t.Fatalf("%s: SearchArea(%v) yielded %s twice", label, r, s.OID)
		}
		out[s.OID] = s.Pos
		return true
	})
	return out
}

// assertSpatialParity compares the tiered store with the oracle on one
// range query (full result set: ids and positions, no duplicates) and one
// exhaustive nearest-neighbor enumeration (every record once, at its
// current position, distances non-decreasing and equal to the oracle's).
func assertSpatialParity(t *testing.T, label string, tiered, oracle sightingQueries, r geo.Rect, p geo.Point) {
	t.Helper()
	got, want := searchSet(t, label, tiered, r), searchSet(t, label, oracle, r)
	for id, pos := range want {
		if gp, ok := got[id]; !ok || gp != pos {
			t.Fatalf("%s: SearchArea(%v): %s = %v (found %v), oracle %v", label, r, id, gp, ok, pos)
		}
	}
	for id, pos := range got {
		if _, ok := want[id]; !ok {
			t.Fatalf("%s: SearchArea(%v) returned %s at %v, absent from the oracle's answer", label, r, id, pos)
		}
	}

	type hit struct {
		pos  geo.Point
		dist float64
	}
	enumerate := func(db sightingQueries) (map[core.OID]hit, []float64) {
		byID := make(map[core.OID]hit)
		var dists []float64
		db.NearestFunc(p, func(s core.Sighting, d float64) bool {
			if _, dup := byID[s.OID]; dup {
				t.Fatalf("%s: NearestFunc(%v) yielded %s twice", label, p, s.OID)
			}
			if n := len(dists); n > 0 && d < dists[n-1] {
				t.Fatalf("%s: NearestFunc(%v) distances decrease: %g after %g", label, p, d, dists[n-1])
			}
			byID[s.OID] = hit{s.Pos, d}
			dists = append(dists, d)
			return true
		})
		return byID, dists
	}
	gotNN, gotD := enumerate(tiered)
	wantNN, wantD := enumerate(oracle)
	if len(gotNN) != len(wantNN) {
		t.Fatalf("%s: NearestFunc(%v) enumerated %d records, oracle %d", label, p, len(gotNN), len(wantNN))
	}
	for id, w := range wantNN {
		g, ok := gotNN[id]
		if !ok || g.pos != w.pos || math.Abs(g.dist-w.dist) > 1e-9 {
			t.Fatalf("%s: NearestFunc(%v): %s = %+v (found %v), oracle %+v", label, p, id, g, ok, w)
		}
	}
	for i := range wantD {
		if math.Abs(gotD[i]-wantD[i]) > 1e-9 {
			t.Fatalf("%s: NearestFunc(%v)[%d] at distance %g, oracle %g", label, p, i, gotD[i], wantD[i])
		}
	}
}

// flushAll freezes every shard's memtable into a run, whatever its size —
// the scripted tests place objects in specific runs with it.
func flushAll(t *testing.T, db *ShardedSightingDB) {
	t.Helper()
	for i, sh := range db.shards {
		sh.lockWrite()
		err := db.flushShardLocked(sh, i)
		sh.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestTieredSpatialShadowing scripts the cases where a spatial read sees an
// old version of an object and must learn, from structures it did not
// read, that the version is dead: the object moved away in a newer run
// whose leaves the query prunes, was tombstoned in a newer run, was
// cold-removed (dead-set), or was re-put into the memtable. Both spatial
// query kinds are compared with the oracle at every step.
func TestTieredSpatialShadowing(t *testing.T) {
	base := time.Unix(1000, 0)
	tiered, oracle := tieredPairBudget(t, 1, 64<<20, 0, func() time.Time { return base })
	put := func(id string, x, y float64) {
		s := core.Sighting{OID: core.OID(id), T: base, Pos: geo.Pt(x, y), SensAcc: 5}
		tiered.Put(s)
		oracle.Put(s)
	}
	remove := func(id string) {
		if got, want := removed(tiered, core.OID(id)), oracle.Remove(core.OID(id)); got != want {
			t.Fatalf("Remove(%s) = %v, oracle %v", id, got, want)
		}
	}
	corner := geo.R(0, 0, 60, 60) // the query window; the named objects start inside it
	probe := geo.Pt(10, 10)
	check := func(label string, absent ...string) {
		t.Helper()
		assertSpatialParity(t, label, tiered, oracle, corner, probe)
		got := searchSet(t, label, tiered, corner)
		for _, id := range absent {
			if pos, ok := got[core.OID(id)]; ok {
				t.Fatalf("%s: %s still answered inside %v (at %v)", label, id, corner, pos)
			}
		}
	}
	// filler spreads n objects over the whole 1000 m square so every run
	// has several spatial leaves, most of them far from the corner.
	filler := func(gen, n int) {
		for i := 0; i < n; i++ {
			put(fmt.Sprintf("fill-%d-%03d", gen, i), 100+float64(i%30)*30, 100+float64(i/30)*30)
		}
	}

	// Run 1 (oldest): the named objects inside the corner.
	for i, id := range []string{"moved", "tombstoned", "cold-removed", "reput-out", "reput-in", "stays"} {
		put(id, 5+float64(i)*8, 20)
	}
	filler(1, 300)
	flushAll(t, tiered)
	check("one run")

	// Run 2: "moved" leaves the corner for the far side, among enough
	// filler that its new entry sits in a leaf the corner query prunes;
	// "tombstoned" is removed and the tombstone flushed.
	put("moved", 950, 950)
	remove("tombstoned")
	filler(2, 300)
	flushAll(t, tiered)
	check("moved + tombstoned in newer run", "moved", "tombstoned")
	// The case is only the intended one if the corner query never read the
	// newer run's leaf holding "moved" at (950, 950).
	runs := tiered.shards[0].tier.runs
	if len(runs) != 2 {
		t.Fatalf("%d runs after two flushes", len(runs))
	}
	pruned := false
	for _, mbr := range runs[0].leaves {
		if mbr.ContainsClosed(geo.Pt(950, 950)) && !mbr.IntersectsClosed(corner) {
			pruned = true
		}
	}
	if !pruned {
		t.Fatalf("the newer run's leaf holding the moved object intersects the query window: %v", runs[0].leaves)
	}
	leafReads := tiered.TierStats().LeafReads
	searchSet(t, "pruning", tiered, corner)
	if read, total := tiered.TierStats().LeafReads-leafReads, int64(len(runs[0].leaves)+len(runs[1].leaves)); read == 0 || read >= total {
		t.Fatalf("corner query read %d of %d leaves", read, total)
	}

	// Dead-set and memtable shadows over run-resident versions.
	remove("cold-removed")
	put("reput-out", 800, 100)
	put("reput-in", 30, 30)
	check("dead-set + memtable re-puts", "moved", "tombstoned", "cold-removed", "reput-out")
	if got := searchSet(t, "re-put", tiered, corner)["reput-in"]; got != geo.Pt(30, 30) {
		t.Fatalf("reput-in answered at %v, want its memtable position (30,30)", got)
	}

	// Flush those shadows into run 3, then compact everything into one run:
	// the answers must not change at either step.
	flushAll(t, tiered)
	check("three runs", "moved", "tombstoned", "cold-removed", "reput-out")
	filler(4, 50)
	flushAll(t, tiered)
	if err := tiered.MaintainTiers(); err != nil { // 4 runs > MaxRuns 3
		t.Fatal(err)
	}
	if st := tiered.TierStats(); st.Compactions == 0 || st.Runs != 1 {
		t.Fatalf("expected one compacted run: %+v", st)
	}
	check("compacted", "moved", "tombstoned", "cold-removed", "reput-out")
	if st := tiered.TierStats(); st.ReadErrors != 0 {
		t.Fatalf("%d read errors on undamaged runs", st.ReadErrors)
	}
}

// TestTierReadErrorsCounted damages a live store's run file and checks the
// loss is visible: a flipped byte in a spatial leaf and in a record block
// each raise TierStats.ReadErrors (and the query carries on, answering
// from what it can still read).
func TestTierReadErrorsCounted(t *testing.T) {
	base := time.Unix(1000, 0)
	newStore := func(t *testing.T) (*ShardedSightingDB, *tierRun) {
		db, _ := tieredPairBudget(t, 1, 64<<20, 0, func() time.Time { return base })
		for i := 0; i < 300; i++ {
			db.Put(core.Sighting{OID: core.OID(fmt.Sprintf("e-%03d", i)), T: base, Pos: geo.Pt(float64(i%20)*10, float64(i/20)*10), SensAcc: 5})
		}
		flushAll(t, db)
		runs := db.shards[0].tier.runs
		if len(runs) != 1 {
			t.Fatalf("%d runs after one flush", len(runs))
		}
		return db, runs[0]
	}
	world := geo.R(-1, -1, 1000, 1000)
	count := func(db *ShardedSightingDB) int {
		n := 0
		db.SearchArea(world, func(core.Sighting) bool { n++; return true })
		return n
	}

	t.Run("spatial leaf", func(t *testing.T) {
		// From record 6 of leaf 1 on, the first record whose X is nonzero
		// (so that flipping its exponent moves it out of the leaf's bounds):
		// that exponent byte, or the record's id-length byte.
		for name, field := range map[string]func(flags, x int64) int64{
			"coordinate": func(_, x int64) int64 { return x + 7 },
			"id length":  func(flags, _ int64) int64 { return flags + 1 },
		} {
			db, r := newStore(t)
			if n := count(db); n != 300 || db.TierStats().ReadErrors != 0 {
				t.Fatalf("%s: undamaged store answered %d with %d read errors", name, n, db.TierStats().ReadErrors)
			}
			patchRun(t, r.path, func(d []byte) []byte {
				flags, x := leafRecordAt(t, d, r, 1, 6)
				for j := 7; getU64(d[x:]) == 0; j++ {
					flags, x = leafRecordAt(t, d, r, 1, j)
				}
				d[field(flags, x)] ^= 0x20
				return d
			})
			if n := count(db); n >= 300 || n < 300-runLeafEntries {
				t.Fatalf("%s: damaged leaf: %d of 300 answered, want the other leaves' records", name, n)
			}
			if errs := db.TierStats().ReadErrors; errs == 0 {
				t.Fatalf("%s: damaged spatial leaf not counted", name)
			}
			before := db.TierStats().ReadErrors
			db.NearestFunc(geo.Pt(0, 0), func(core.Sighting, float64) bool { return true })
			if db.TierStats().ReadErrors == before {
				t.Fatalf("%s: nearest-neighbor pass over the damaged leaf not counted", name)
			}
		}
	})

	t.Run("record block", func(t *testing.T) {
		db, r := newStore(t)
		// The id-length byte of the first record, turned into a length no
		// block can hold: the point lookup's block decode fails; so does
		// every full scan's checksum.
		patchRun(t, r.path, func(d []byte) []byte { d[1] = 0xff; return d })
		if _, ok := db.Get("e-003"); ok {
			t.Fatal("Get decoded a record out of a damaged block")
		}
		afterGet := db.TierStats().ReadErrors
		if afterGet == 0 {
			t.Fatal("damaged record block not counted on Get")
		}
		db.ForEach(func(core.Sighting) bool { return true })
		if db.TierStats().ReadErrors == afterGet {
			t.Fatal("data checksum mismatch on a full scan not counted")
		}
	})
}

// ---------------------------------------------------------------------------
// Recovery.

// populateTiered opens a tiered store over a sharded WAL in dir, loads n
// records (flushing runs along the way) plus a post-flush WAL tail, and
// closes the WAL. Returns the expected final state.
func populateTiered(t *testing.T, dir string, shards, n int) map[core.OID]core.Sighting {
	t.Helper()
	wal, err := OpenShardedWAL(dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	db := NewShardedSightingDB(
		WithSightingWAL(wal),
		WithTiering(TierConfig{MemtableBytes: 1, MaxRuns: 3}))
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	base := time.Unix(2000, 0)
	for i := 0; i < n; i++ {
		db.Put(core.Sighting{OID: core.OID(fmt.Sprintf("r-%04d", i)), T: base, Pos: geo.Pt(float64(i), 1), SensAcc: 5})
	}
	if err := db.MaintainTiers(); err != nil {
		t.Fatal(err)
	}
	// A WAL tail past the last flush: updates and a cold remove.
	for i := 0; i < n/10; i++ {
		db.Put(core.Sighting{OID: core.OID(fmt.Sprintf("r-%04d", i)), T: base.Add(time.Second), Pos: geo.Pt(float64(i), 2), SensAcc: 5})
	}
	if !removed(db, core.OID(fmt.Sprintf("r-%04d", n-1))) {
		t.Fatal("tail Remove failed")
	}
	want := storeState(db)
	if err := wal.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

func reopenTiered(t *testing.T, dir string, shards int) (*ShardedSightingDB, *ShardedWAL) {
	t.Helper()
	wal, err := OpenShardedWAL(dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	db := NewShardedSightingDB(
		WithSightingWAL(wal),
		WithTiering(TierConfig{MemtableBytes: 1, MaxRuns: 3}))
	return db, wal
}

// TestTieringRequiresSightingWAL: the runs live in the sighting log's
// directory, so both recovery paths refuse a tiered store without a log
// and name it.
func TestTieringRequiresSightingWAL(t *testing.T) {
	for name, recover := range map[string]func(*ShardedSightingDB) error{
		"Recover":           (*ShardedSightingDB).Recover,
		"RecoverBackground": (*ShardedSightingDB).RecoverBackground,
	} {
		db := NewShardedSightingDB(WithShards(2), WithTiering(TierConfig{MemtableBytes: 1}))
		if err := recover(db); err == nil || !strings.Contains(err.Error(), "sighting WAL") {
			t.Errorf("%s = %v, want a refusal naming the sighting WAL", name, err)
		}
	}
}

func TestTieredRecoverTailOnly(t *testing.T) {
	dir := t.TempDir()
	want := populateTiered(t, dir, 2, 200)

	db, wal := reopenTiered(t, dir, 2)
	defer wal.Close()
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	diffStates(t, "recovered", storeState(db), want)

	// The tombstone must survive recovery: the removed id's versions
	// still live in runs and must stay dead.
	if _, ok := db.Get("r-0199"); ok {
		t.Fatal("crash resurrected a removed record")
	}
	st := db.TierStats()
	if !st.Enabled || st.Runs == 0 {
		t.Fatalf("tiers not restored: %+v", st)
	}
}

func TestTieredRecoverSweepsCrashLeftovers(t *testing.T) {
	dir := t.TempDir()
	want := populateTiered(t, dir, 2, 200)

	// Crash mid-flush: an orphaned run temp and a finished-but-uncommitted
	// run (written, renamed, manifest never updated).
	if err := os.WriteFile(filepath.Join(dir, ".tier-tmp-crash1"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, runFileName(0, 9000))
	w, err := newRunWriter(dir, runFileName(0, 9000), 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.add(runRecord{s: core.Sighting{OID: "zzz-not-in-store", Pos: geo.Pt(1, 1), T: time.Unix(2000, 0), SensAcc: 5}}); err != nil {
		t.Fatal(err)
	}
	if err := w.finish(); err != nil {
		t.Fatal(err)
	}
	// Crash mid-compaction looks the same from the manifest's point of
	// view: a merged run exists on disk but the manifest still lists the
	// inputs. Simulate with a second uncommitted run on the other shard.
	w2, err := newRunWriter(dir, runFileName(1, 9001), 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.add(runRecord{s: core.Sighting{OID: "zzz-merged", Pos: geo.Pt(2, 2), T: time.Unix(2000, 0), SensAcc: 5}}); err != nil {
		t.Fatal(err)
	}
	if err := w2.finish(); err != nil {
		t.Fatal(err)
	}
	// And a half-written manifest temp (saveManifest crashed pre-rename).
	if err := os.WriteFile(filepath.Join(dir, ".tier-tmp-manifest"), []byte("{\"shard\":"), 0o644); err != nil {
		t.Fatal(err)
	}

	db, wal := reopenTiered(t, dir, 2)
	defer wal.Close()
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	// The committed prefix — manifest-referenced runs plus the WAL tail —
	// is intact; the uncommitted leftovers are gone, on disk and logically.
	diffStates(t, "recovered after crash", storeState(db), want)
	if _, ok := db.Get("zzz-not-in-store"); ok {
		t.Fatal("uncommitted run leaked into the store")
	}
	for _, leftover := range []string{orphan, filepath.Join(dir, runFileName(1, 9001)), filepath.Join(dir, ".tier-tmp-crash1"), filepath.Join(dir, ".tier-tmp-manifest")} {
		if _, err := os.Stat(leftover); !os.IsNotExist(err) {
			t.Fatalf("crash leftover %s survived recovery", leftover)
		}
	}
}

func TestTieredRecoverRejectsCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	populateTiered(t, dir, 2, 100)
	if err := os.WriteFile(filepath.Join(dir, manifestFileName(0)), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	db, wal := reopenTiered(t, dir, 2)
	defer wal.Close()
	if err := db.Recover(); err == nil {
		t.Fatal("Recover accepted a corrupt manifest")
	}
}

func TestTieredRecoverBackground(t *testing.T) {
	dir := t.TempDir()
	want := populateTiered(t, dir, 4, 400)

	db, wal := reopenTiered(t, dir, 4)
	defer wal.Close()
	if err := db.RecoverBackground(); err != nil {
		t.Fatal(err)
	}
	// Reads are admitted immediately; each blocks at most on its own
	// shard's tail replay (the shard lock is the readiness gate).
	for i := 0; i < 100; i++ {
		id := core.OID(fmt.Sprintf("r-%04d", i))
		got, ok := db.Get(id)
		if w, exists := want[id]; exists {
			if !ok || got.Pos != w.Pos {
				t.Fatalf("Get(%s) during warm-up = %+v, %v", id, got, ok)
			}
		} else if ok {
			t.Fatalf("Get(%s) during warm-up resurrected a removed record", id)
		}
	}
	if err := db.RecoverBackground(); err == nil {
		t.Fatal("second RecoverBackground accepted")
	}
	if err := db.WaitRecovered(); err != nil {
		t.Fatal(err)
	}
	if !db.TierStats().Warm {
		t.Fatal("store not warm after WaitRecovered")
	}
	diffStates(t, "background-recovered", storeState(db), want)
}

// ---------------------------------------------------------------------------
// Concurrency soak: updates and queries racing flushes and compactions.

func TestTieredSoak(t *testing.T) {
	const (
		shards  = 4
		workers = 4
		perID   = 500
	)
	ops := 8000
	if testing.Short() {
		ops = 2500
	}
	db := NewShardedSightingDB(
		WithSightingWAL(tempShardedWAL(t, shards)),
		WithTiering(TierConfig{MemtableBytes: 1, MaxRuns: 3}))
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var maint sync.WaitGroup
	maint.Add(1)
	go func() {
		defer maint.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := db.MaintainTiers(); err != nil {
					t.Error(err)
					return
				}
				// Paces maintenance against the writers: a soak in real time, not a timer test.
				time.Sleep(time.Millisecond)
			}
		}
	}()

	// Writers own disjoint id slices; readers run range and point queries
	// throughout. Every read must observe internally consistent state (no
	// panics, no duplicate ids in one scan).
	var wg sync.WaitGroup
	final := make([]map[core.OID]geo.Point, workers)
	base := time.Unix(3000, 0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			mine := make(map[core.OID]geo.Point)
			for i := 0; i < ops; i++ {
				id := core.OID(fmt.Sprintf("w%d-%03d", w, rng.Intn(perID)))
				if rng.Intn(10) == 0 {
					db.Deregister(id, false)
					delete(mine, id)
					continue
				}
				p := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
				db.Put(core.Sighting{OID: id, T: base.Add(time.Duration(i) * time.Millisecond), Pos: p, SensAcc: 5})
				mine[id] = p
			}
			final[w] = mine
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < ops/2; i++ {
				switch i % 3 {
				case 0:
					x, y := rng.Float64()*900, rng.Float64()*900
					seen := make(map[core.OID]bool)
					db.SearchArea(geo.R(x, y, x+100, y+100), func(s core.Sighting) bool {
						if seen[s.OID] {
							t.Errorf("SearchArea yielded %s twice in one scan", s.OID)
							return false
						}
						seen[s.OID] = true
						return true
					})
				case 1:
					db.Get(core.OID(fmt.Sprintf("w%d-%03d", rng.Intn(workers), rng.Intn(perID))))
				default:
					n := 0
					db.NearestFunc(geo.Pt(rng.Float64()*1000, rng.Float64()*1000), func(core.Sighting, float64) bool {
						n++
						return n < 3
					})
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	maint.Wait()
	if err := db.MaintainTiers(); err != nil {
		t.Fatal(err)
	}

	st := db.TierStats()
	if st.Flushes < 2 || st.Compactions < 1 {
		t.Fatalf("soak too tame: %d flushes, %d compactions (want >=2, >=1)", st.Flushes, st.Compactions)
	}
	// Final state: every writer's last write wins.
	for w := 0; w < workers; w++ {
		for id, p := range final[w] {
			got, ok := db.Get(id)
			if !ok || got.Pos != p {
				t.Fatalf("final Get(%s) = %+v, %v, want %v", id, got, ok, p)
			}
		}
	}
	// And nothing beyond the writers' final sets survives.
	want := make(map[core.OID]geo.Point)
	for w := 0; w < workers; w++ {
		for id, p := range final[w] {
			want[id] = p
		}
	}
	got := storeState(db)
	if len(got) != len(want) {
		var extra []string
		for id := range got {
			if _, ok := want[id]; !ok {
				extra = append(extra, string(id))
			}
		}
		sort.Strings(extra)
		t.Fatalf("final store holds %d records, want %d (extra: %v)", len(got), len(want), extra)
	}
}

// TestTieredMemoryBounded drives a dataset several times the memtable
// budget through the store and checks the resident estimate stays within
// the backpressure bound (2x budget per shard) even without a janitor.
func TestTieredMemoryBounded(t *testing.T) {
	const shards = 2
	budget := int64(16 << 10) // per store; per shard max(budget/shards, 4096)
	db := NewShardedSightingDB(
		WithSightingWAL(tempShardedWAL(t, shards)),
		WithTiering(TierConfig{MemtableBytes: budget}))
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	base := time.Unix(4000, 0)
	for i := 0; i < 4000; i++ { // ~4000*180 B resident if nothing flushed: ~44x the per-shard budget
		db.Put(core.Sighting{OID: core.OID(fmt.Sprintf("m-%05d", i)), T: base, Pos: geo.Pt(float64(i%100), float64(i/100)), SensAcc: 5})
	}
	st := db.TierStats()
	perShard := budget / shards
	if perShard < 4096 {
		perShard = 4096
	}
	if st.MemtableBytes > 2*perShard*shards+4096 {
		t.Fatalf("memtables at %d bytes despite %d-byte backpressure bound (%+v)", st.MemtableBytes, 2*perShard*shards, st)
	}
	if st.Flushes == 0 {
		t.Fatal("backpressure never flushed")
	}
	// The other resident part is run metadata: blooms (10 bits/record),
	// sparse indexes (one ~40-byte entry per 16 records) and leaf
	// directories (40 bytes per 64 live records) — a few bytes per record,
	// and never less than the directories it must include.
	var dirBytes int64
	for _, sh := range db.shards {
		for _, r := range sh.tier.runs {
			dirBytes += int64(len(r.leaves)) * runLeafDirEntrySize
		}
	}
	if st.MetaBytes <= dirBytes || st.MetaBytes > 8*st.DiskRecords+256*int64(st.Runs) {
		t.Fatalf("run metadata at %d bytes for %d records in %d runs (%d of leaf directory)", st.MetaBytes, st.DiskRecords, st.Runs, dirBytes)
	}
	if db.Len() < 4000 {
		t.Fatalf("Len = %d, want >= 4000", db.Len())
	}
}

// verify reads the whole run once and checks both region checksums: a
// complete scan of the records against crcData, then the spatial leaves
// against crcSpatial.
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
