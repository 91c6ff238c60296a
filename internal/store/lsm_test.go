package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
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

func writeTestRun(t testing.TB, dir string, shard int, seq uint64, recs []runRecord) *tierRun {
	t.Helper()
	name := runFileName(shard, seq)
	w, err := newRunWriter(dir, name, len(recs))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.add(rec); err != nil {
			t.Fatal(err)
		}
	}
	r, err := w.finish()
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

	// Spatial columns: every live record sits in exactly one slot, inside
	// its leaf's directory MBR, at the position and under the id of its
	// record in the id-ordered region. Tombstones are not indexed. A run
	// opened from the file holds the columns its writer handed over.
	if want := (wantLive + runLeafEntries - 1) / runLeafEntries; len(r.leaves) != want {
		t.Fatalf("%d leaves for %d live records, want %d", len(r.leaves), wantLive, want)
	}
	if len(r.pos) != wantLive || len(r.idEnd) != wantLive {
		t.Fatalf("%d positions and %d id ends for %d live records", len(r.pos), len(r.idEnd), wantLive)
	}
	indexed := make(map[core.OID]int)
	for slot, p := range r.pos {
		if leaf := r.leaves[slot/runLeafEntries]; !leaf.ContainsClosed(p) {
			t.Fatalf("leaf %d MBR %v misses slot %d at %v", slot/runLeafEntries, leaf, slot, p)
		}
		id := r.id(slot)
		rec, ok, err := r.get(id)
		if !ok || err != nil || rec.tombstone || rec.s.Pos != p {
			t.Fatalf("slot %d (%s at %v): its record is %+v (%v, %v)", slot, id, p, rec, ok, err)
		}
		indexed[id]++
	}
	for _, rec := range recs {
		if want := map[bool]int{true: 0, false: 1}[rec.tombstone]; indexed[rec.s.OID] != want {
			t.Fatalf("%s (tombstone %v) appears in %d slots, want %d", rec.s.OID, rec.tombstone, indexed[rec.s.OID], want)
		}
	}
	reopened, err := openRun(r.path, nil)
	if err != nil {
		t.Fatalf("reopening a fresh run: %v", err)
	}
	defer reopened.retire(false)
	if !slices.Equal(reopened.leaves, r.leaves) || !slices.Equal(reopened.pos, r.pos) || !slices.Equal(reopened.idEnd, r.idEnd) || reopened.ids != r.ids {
		t.Fatal("the columns read from the file differ from those its writer handed over")
	}
	if err := r.scan(func(runRecord) bool { return true }); err != nil {
		t.Fatalf("full scan of a fresh run: %v", err)
	}
	// The directory, the columns and the object table a flush gives the
	// run are resident metadata and must be accounted as such.
	r.setObj(0, &object{})
	if min := int64(len(r.bloom.bits)+len(r.leaves)*runLeafDirEntrySize+len(r.ids)) + r.live*(16+4+8); r.metaBytes() < min {
		t.Fatalf("metaBytes %d below bloom + leaf directory + columns + object table (%d)", r.metaBytes(), min)
	}
}

func TestRunWriterRejectsUnsortedKeys(t *testing.T) {
	dir := t.TempDir()
	w, err := newRunWriter(dir, runFileName(0, 1), 2)
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
	if _, err := openRun(path, nil); err == nil {
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

// TestRunSpatialCorruption is the corruption table of the v4 spatial
// columns: whatever is damaged — a column byte, an id end, an id byte, the
// leaf directory, a footer length — the run is refused at open, where the
// columns are read and checked, never a panic or a read outside them.
// Range and nearest-neighbor reads touch no disk, so open is the one place
// such damage can show.
func TestRunSpatialCorruption(t *testing.T) {
	dir := t.TempDir()
	r := writeTestRun(t, dir, 0, 1, testRunRecords(200))
	path, size := r.path, r.size
	spatialOff, spatialLen := r.recordsLen, r.spatialLen
	dirOff := size - runFooterSize - int64(len(r.leaves))*runLeafDirEntrySize
	footerOff := size - runFooterSize
	live := r.live
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r.retire(false)
	restore := func() {
		t.Helper()
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// refused requires openRun to refuse the file, naming want.
	refused := func(t *testing.T, what, want string) {
		t.Helper()
		r, err := openRun(path, nil)
		if err == nil {
			r.retire(false)
			t.Fatalf("openRun accepted %s", what)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("openRun refused %s with %v, want %q", what, err, want)
		}
	}
	// reseal rewrites the spatial checksum over the edited columns, so that
	// only the columns' own checks can refuse them.
	reseal := func(d []byte) {
		binary.LittleEndian.PutUint32(d[footerOff+92:], crc32.ChecksumIEEE(d[spatialOff:spatialOff+spatialLen]))
	}
	xAt := func(slot int64) int64 { return spatialOff + 8*slot }
	endAt := func(slot int64) int64 { return spatialOff + 16*live + 4*slot }

	t.Run("truncation", func(t *testing.T) {
		defer restore()
		// Every cut inside the spatial columns, the meta blocks and the
		// footer loses the footer: open must refuse, whatever bytes end
		// up in its place.
		for cut := spatialOff; cut < size; cut++ {
			if err := os.WriteFile(path, pristine[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if r, err := openRun(path, nil); err == nil {
				r.retire(false)
				t.Fatalf("openRun accepted a run truncated at %d of %d", cut, size)
			}
		}
	})

	t.Run("directory bytes", func(t *testing.T) {
		defer restore()
		for off := dirOff; off < footerOff; off += 5 {
			patchRun(t, path, func(d []byte) []byte { d[off] ^= 0x10; return d })
			refused(t, fmt.Sprintf("a flipped directory byte at %d", off), "meta checksum")
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
			if r, err := openRun(path, nil); err == nil {
				r.retire(false)
				t.Fatalf("openRun accepted inconsistent footer field at %d", field)
			}
			restore()
		}
	})

	t.Run("spatial checksum at open", func(t *testing.T) {
		defer restore()
		// The low mantissa byte of a coordinate keeps its slot inside its
		// leaf's bounds, an id end's low byte may keep the ends in order,
		// an id byte changes no length: only the checksum can tell, and
		// open checks it. Every column is hit, at several slots.
		for _, c := range []struct {
			name string
			off  func(slot int64) int64
		}{
			{"X", xAt},
			{"Y", func(slot int64) int64 { return spatialOff + 8*live + 8*slot }},
			{"id end", endAt},
			{"id block", func(slot int64) int64 { return spatialOff + 20*live + slot }},
		} {
			for _, slot := range []int64{0, 3, live / 2, live - 1} {
				off := c.off(slot)
				patchRun(t, path, func(d []byte) []byte { d[off] ^= 0x01; return d })
				refused(t, fmt.Sprintf("a flipped %s byte of slot %d", c.name, slot), "spatial checksum")
				restore()
			}
		}
	})

	// Columns the spatial checksum vouches for, yet which break the
	// columns' rules: refused at open, by the parser's own checks.
	for name, c := range map[string]struct {
		edit func(d []byte)
		want string
	}{
		"extent past the spatial region": {func(d []byte) {
			binary.LittleEndian.PutUint32(d[endAt(5):], uint32(spatialLen))
		}, "past"},
		"extents off the region length": {func(d []byte) {
			e := d[endAt(live-1):]
			binary.LittleEndian.PutUint32(e, binary.LittleEndian.Uint32(e)-1)
		}, "add up"},
		"id end before its predecessor": {func(d []byte) {
			binary.LittleEndian.PutUint32(d[endAt(7):], 0)
		}, "predecessor"},
		"record outside the leaf's MBR": {func(d []byte) {
			putU64(d[xAt(runLeafEntries+5):], math.Float64bits(1e9))
		}, "outside"},
		"wrong entry count": {func(d []byte) {
			// The footer's live count one short: the columns no longer
			// line up with the slots.
			f := d[footerOff:]
			putU64(f[16:], getU64(f[16:])-1)
		}, "run"},
	} {
		t.Run(name, func(t *testing.T) {
			defer restore()
			patchRun(t, path, func(d []byte) []byte { c.edit(d); reseal(d); return d })
			refused(t, name, c.want)
		})
	}
}

func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func getU64(b []byte) uint64    { return binary.LittleEndian.Uint64(b) }

// TestOpenRunRefusesV1 pins the no-fallback rule: a run of an older
// format — version 1 (92-byte footer, no spatial block), version 2
// (offset-addressed spatial leaves) or version 3 (spatial leaves holding a
// second copy of every live record) — is refused with its version named.
func TestOpenRunRefusesV1(t *testing.T) {
	for _, old := range []struct {
		version    uint32
		footerSize int
	}{{1, 92}, {2, 112}, {3, 112}} {
		t.Run(fmt.Sprintf("v%d", old.version), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), runFileName(0, 1))
			data := make([]byte, 300) // records + meta stand-ins, then the footer
			footer := data[len(data)-old.footerSize:]
			binary.LittleEndian.PutUint32(footer[old.footerSize-12:], old.version)
			binary.LittleEndian.PutUint64(footer[old.footerSize-8:], runMagic)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := openRun(path, nil)
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

// TestTierSearchAllocs pins the cold spatial reads' promise: no I/O and
// no per-hit allocation. With every run's file closed after the flush,
// SearchBuckets and NearestEntries still answer every run-resident hit —
// positions and ids come from the resident columns, an item's id aliases
// the run's id block — and a SearchBuckets allocates at most a constant,
// however many hits it returns and however many positions outside the
// rectangle it passes over.
func TestTierSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	base := time.Unix(1000, 0)
	db, oracle := tieredPairBudget(t, 1, 64<<20, 0, func() time.Time { return base })
	for _, rec := range testRunRecords(500) {
		if !rec.tombstone {
			db.Put(rec.s)
			oracle.Put(rec.s)
		}
	}
	flushAll(t, db)
	runs := db.shards[0].tier.runs
	for _, r := range runs {
		r.f.Close()
	}
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
	scanned := db.TierStats().LeavesScanned
	db.SearchBuckets(rect, visit)
	want, leaves := hits, db.TierStats().LeavesScanned-scanned
	if inRect := len(searchSet(t, "oracle", oracle, rect)); want != inRect || want == 0 {
		t.Fatalf("SearchBuckets over closed run files found %d hits, the oracle %d", want, inRect)
	}
	if leaves < 2 || int64(want) >= leaves*runLeafEntries {
		t.Fatalf("%d hits from %d leaves: the query must pass over positions it does not return", want, leaves)
	}
	p := geo.Pt(40, 2)
	var got, wantNN []core.OID
	db.NearestEntries(p, func(id core.OID, _ geo.Point, _, _ float64) bool { got = append(got, id); return true })
	oracle.NearestFunc(p, func(s core.Sighting, _ float64) bool { wantNN = append(wantNN, s.OID); return true })
	slices.Sort(got)
	slices.Sort(wantNN)
	if !slices.Equal(got, wantNN) {
		t.Fatalf("NearestEntries over closed run files delivered %d neighbors, the oracle %d", len(got), len(wantNN))
	}
	const constant = 2
	if n := testing.AllocsPerRun(100, func() { db.SearchBuckets(rect, visit) }); n > constant {
		t.Fatalf("cold SearchBuckets of %d hits allocates %.1f times, want <= %d", want, n, constant)
	}
	if st := db.TierStats(); st.ReadErrors != 0 {
		t.Fatalf("%d read errors: a spatial read touched a closed run file", st.ReadErrors)
	}
}

// FuzzRunSpatial feeds arbitrary bytes to the parser of the leaf
// directory and the spatial columns: it must refuse them, or accept
// exactly live slots whose ids lie inside the id block and whose positions
// lie inside their leaf's bounds — never panic or index out of range.
func FuzzRunSpatial(f *testing.F) {
	r := writeTestRun(f, f.TempDir(), 0, 1, testRunRecords(150))
	data, err := os.ReadFile(r.path)
	if err != nil {
		f.Fatal(err)
	}
	dirOff := r.size - runFooterSize - int64(len(r.leaves))*runLeafDirEntrySize
	dir, section := data[dirOff:r.size-runFooterSize], data[r.recordsLen:r.recordsLen+r.spatialLen]
	f.Add(dir, section, uint16(r.live))
	f.Add(dir[:runLeafDirEntrySize], section[:runLeafEntries*runSlotSize+int(r.idEnd[runLeafEntries-1])], uint16(runLeafEntries))
	f.Add([]byte{}, []byte{}, uint16(0))
	r.retire(false)

	world := geo.R(-1e6, -1e6, 1e6, 1e6)
	f.Fuzz(func(t *testing.T, dir, section []byte, live uint16) {
		leaves, cols, err := parseSpatial(dir, section, int64(live), world)
		if err != nil {
			return
		}
		n := int(live)
		if want := (n + runLeafEntries - 1) / runLeafEntries; len(leaves) != want || len(cols.pos) != n || len(cols.idEnd) != n {
			t.Fatalf("accepted %d leaves, %d positions and %d id ends for %d live slots", len(leaves), len(cols.pos), len(cols.idEnd), n)
		}
		if got := runSlotSize*n + len(cols.ids); got != len(section) {
			t.Fatalf("columns of %d slots and %d id bytes from a %d-byte section", n, len(cols.ids), len(section))
		}
		total := 0
		for slot, p := range cols.pos {
			if !leaves[slot/runLeafEntries].ContainsClosed(p) || !world.ContainsClosed(p) {
				t.Fatalf("slot %d at %v outside its leaf %v", slot, p, leaves[slot/runLeafEntries])
			}
			total += len(cols.id(slot))
		}
		if total != len(cols.ids) {
			t.Fatalf("the slots' ids cover %d of the %d-byte id block", total, len(cols.ids))
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
	if st.Flushes < 3 || st.Compactions < 1 || st.Runs == 0 || st.LeavesScanned == 0 {
		t.Fatalf("parity test never exercised the disk tier enough (want >= 3 flushes, >= 1 compaction, leaves scanned): %+v", st)
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
	scanned := tiered.TierStats().LeavesScanned
	searchSet(t, "pruning", tiered, corner)
	if read, total := tiered.TierStats().LeavesScanned-scanned, int64(len(runs[0].leaves)+len(runs[1].leaves)); read == 0 || read >= total {
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
// loss is visible: a flipped byte in a record block raises
// TierStats.ReadErrors (and the query carries on, answering from what it
// can still read), and one in the spatial columns, which no query reads
// from disk, refuses the run at the next open.
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
		// Damage to the spatial columns cannot surface at query time: the
		// live store keeps answering from the columns it holds, reading no
		// disk, and the damage refuses the run when a store opens it.
		for name, field := range map[string]func(r *tierRun) int64{
			"coordinate": func(r *tierRun) int64 { return r.recordsLen + 8*(runLeafEntries+6) + 7 },
			"id":         func(r *tierRun) int64 { return r.recordsLen + runSlotSize*r.live + 2 },
		} {
			db, r := newStore(t)
			patchRun(t, r.path, func(d []byte) []byte { d[field(r)] ^= 0x20; return d })
			if n := count(db); n != 300 || db.TierStats().ReadErrors != 0 {
				t.Fatalf("%s: the live store answered %d of 300 with %d read errors after its run file was damaged", name, n, db.TierStats().ReadErrors)
			}
			reopened, err := openRun(r.path, nil)
			if err == nil {
				reopened.retire(false)
			}
			if err == nil || !strings.Contains(err.Error(), r.path) || !strings.Contains(err.Error(), "spatial checksum") {
				t.Fatalf("%s: reopening the damaged run: %v, want it refused on its spatial checksum", name, err)
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
// directory, so Recover refuses a tiered store without a log and names it.
func TestTieringRequiresSightingWAL(t *testing.T) {
	db := NewShardedSightingDB(WithShards(2), WithTiering(TierConfig{MemtableBytes: 1}))
	if err := db.Recover(); err == nil || !strings.Contains(err.Error(), "sighting WAL") {
		t.Fatalf("Recover = %v, want a refusal naming the sighting WAL", err)
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
	writeTestRun(t, dir, 0, 9000, []runRecord{{s: core.Sighting{OID: "zzz-not-in-store", Pos: geo.Pt(1, 1), T: time.Unix(2000, 0), SensAcc: 5}}}).retire(false)
	// Crash mid-compaction looks the same from the manifest's point of
	// view: a merged run exists on disk but the manifest still lists the
	// inputs. Simulate with a second uncommitted run on the other shard.
	writeTestRun(t, dir, 1, 9001, []runRecord{{s: core.Sighting{OID: "zzz-merged", Pos: geo.Pt(2, 2), T: time.Unix(2000, 0), SensAcc: 5}}}).retire(false)
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
	// The other resident part is run metadata, composed exactly of: per
	// run a bloom filter (10 bits per record, 64 at least), a sparse index
	// (one entry per 16 records: the 7-byte id and 24 bytes), a leaf
	// directory (a 32-byte MBR per 64 live records) and the spatial columns
	// (per live record a 16-byte position, a 4-byte id end and its 7-byte
	// id). No object tables: nothing here is registered. The columns are
	// the bulk — 27 B per live record against the 8 B per record that
	// bounded the metadata while the spatial leaves stayed on disk.
	var want, columns int64
	for _, sh := range db.shards {
		for _, r := range sh.tier.runs {
			const idLen = int64(len("m-00000"))
			want += (max(r.count*10, 64) + 7) / 8
			want += (r.count + runSparseEvery - 1) / runSparseEvery * (idLen + 24)
			want += (r.live + runLeafEntries - 1) / runLeafEntries * runLeafDirEntrySize
			columns += r.live * (16 + 4 + idLen)
		}
	}
	if want += columns; st.MetaBytes != want {
		t.Fatalf("run metadata at %d bytes for %d records (%d live) in %d runs, want %d (%d of spatial columns)", st.MetaBytes, st.DiskRecords, st.DiskLive, st.Runs, want, columns)
	}
	if db.Len() < 4000 {
		t.Fatalf("Len = %d, want >= 4000", db.Len())
	}
}

// BenchmarkTierFlush reports what one flush of a 4 096-record memtable
// allocates and costs: the run writer's per-record state, the run file and
// the run opened from it. The puts between flushes are not timed.
func BenchmarkTierFlush(b *testing.B) {
	const records = 4096
	base := time.Unix(1000, 0)
	db := NewShardedSightingDB(WithClock(func() time.Time { return base }), WithSightingWAL(tempShardedWAL(b, 1)),
		WithTiering(TierConfig{MemtableBytes: 64 << 20, MaxRuns: 1 << 20}))
	if err := db.Recover(); err != nil {
		b.Fatal(err)
	}
	ids := make([]core.OID, records)
	for i := range ids {
		ids[i] = core.OID(fmt.Sprintf("flush-%05d", i))
	}
	sh := db.shards[0]
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		for i, id := range ids {
			db.Put(core.Sighting{OID: id, T: base, Pos: geo.Pt(float64(i%64)*15+float64(n), float64(i/64)*15), SensAcc: 5})
		}
		b.StartTimer()
		sh.lockWrite()
		err := db.flushShardLocked(sh, 0)
		sh.mu.Unlock()
		if err != nil {
			b.Fatal(err)
		}
	}
}
