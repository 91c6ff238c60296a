package store

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
)

// Every record the encoder accepts must decode to exactly the record it
// was given — ids, strings and float bits, NaN payloads included, and
// timestamps to the nanosecond, in UTC — behind a frame whose length and
// CRCs check; every record it refuses must leave dst as it was.
func TestWALRecordEncodingRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	long := strings.Repeat("x", 300)
	ids := []string{"plain", "", `qu"ote`, "uni·cødé-日本", "ctrl\nnew\tline\x00", "bad\xffutf8\xc3", long}
	randomString := func() string { return ids[rng.Intn(len(ids))] }
	randomFloat := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return math.Float64frombits(0x7ff8000000000000 | rng.Uint64()&0xfffffffffffff) // NaN, any payload
		case 1:
			return math.Inf(1 - 2*rng.Intn(2))
		case 2:
			return math.Copysign(0, -1)
		case 3:
			return math.SmallestNonzeroFloat64
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	// One in twenty timestamps lies outside the range of UnixNano.
	randomTime := func() time.Time {
		if rng.Intn(20) == 0 {
			return []time.Time{
				time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC),
				time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC),
				time.Unix(0, math.MinInt64),
			}[rng.Intn(3)]
		}
		switch rng.Intn(6) {
		case 0:
			return time.Time{}
		case 1:
			return time.Unix(0, math.MaxInt64)
		case 2:
			return time.Unix(0, math.MinInt64+1)
		case 3:
			return time.Date(2026, 10, 16, 11, 0, 3, rng.Intn(1e9), time.FixedZone("CEST", 2*3600))
		case 4:
			return time.Unix(0, 0)
		}
		return time.Now().Add(time.Duration(rng.Int63n(1e15)))
	}
	randomVisitor := func() *VisitorRecord {
		v := &VisitorRecord{OID: core.OID(randomString()), PathT: randomTime()}
		if rng.Intn(2) == 0 {
			v.ForwardRef = randomString()
		} else {
			v.OfferedAcc = randomFloat()
			v.RegInfo = core.RegInfo{Registrant: randomString(), DesAcc: randomFloat(), MinAcc: randomFloat(), MaxSpeed: randomFloat()}
		}
		return v
	}
	sameFloat := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	sameTime := func(got, want time.Time) bool {
		return got.Equal(want) && got.IsZero() == want.IsZero() && (got.IsZero() || got.Location() == time.UTC)
	}
	accepted := 0
	for i := 0; i < 5000; i++ {
		var rec WALRecord
		switch rng.Intn(4) {
		case 0:
			rec = WALRecord{Op: WALSightingRemove, OID: core.OID(randomString())}
		case 1:
			rec = WALRecord{Op: WALPut, Visitor: randomVisitor()}
		case 2:
			rec = WALRecord{Op: WALRemove, Visitor: &VisitorRecord{OID: core.OID(randomString())}}
		default:
			batch := make([]core.Sighting, rng.Intn(5))
			for j := range batch {
				batch[j] = core.Sighting{OID: core.OID(randomString()), T: randomTime(), Pos: geo.Pt(randomFloat(), randomFloat()), SensAcc: randomFloat()}
			}
			rec = WALRecord{Op: WALSightingBatch, Sightings: batch}
		}
		inRange := true
		if rec.Visitor != nil {
			inRange = core.InNanoRange(rec.Visitor.PathT)
		}
		for _, s := range rec.Sightings {
			inRange = inRange && core.InNanoRange(s.T)
		}
		dst := []byte("prefix")
		out, err := appendWALRecord(dst, rec)
		if !inRange {
			if err == nil || string(out) != "prefix" || len(out) != len(dst) {
				t.Fatalf("%+v: encoded %q, %v; want an error and dst unchanged", rec, out, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("encode %+v: %v", rec, err)
		}
		if string(out[:len(dst)]) != "prefix" {
			t.Fatalf("encode did not append to dst: %q", out)
		}
		frame, payload := out[len(dst):len(dst)+walFrameSize], out[len(dst)+walFrameSize:]
		if n := binary.LittleEndian.Uint32(frame); int(n) != len(payload) ||
			binary.LittleEndian.Uint32(frame[4:]) != crc32.ChecksumIEEE(frame[:4]) ||
			binary.LittleEndian.Uint32(frame[8:]) != crc32.ChecksumIEEE(payload) {
			t.Fatalf("frame % x does not describe its %d-byte payload", frame, len(payload))
		}
		got, err := decodeWALRecord(payload)
		if err != nil {
			t.Fatalf("decode %+v: %v", rec, err)
		}
		accepted++
		if got.Op != rec.Op || got.OID != rec.OID || len(got.Sightings) != len(rec.Sightings) || (got.Visitor == nil) != (rec.Visitor == nil) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, rec)
		}
		for j, g := range got.Sightings {
			w := rec.Sightings[j]
			if g.OID != w.OID || !sameTime(g.T, w.T) || !sameFloat(g.Pos.X, w.Pos.X) || !sameFloat(g.Pos.Y, w.Pos.Y) || !sameFloat(g.SensAcc, w.SensAcc) {
				t.Fatalf("sighting %d:\n got %+v\nwant %+v", j, g, w)
			}
		}
		if g, w := got.Visitor, rec.Visitor; w != nil {
			if g.OID != w.OID || g.ForwardRef != w.ForwardRef || !sameFloat(g.OfferedAcc, w.OfferedAcc) ||
				g.RegInfo.Registrant != w.RegInfo.Registrant || !sameFloat(g.RegInfo.DesAcc, w.RegInfo.DesAcc) ||
				!sameFloat(g.RegInfo.MinAcc, w.RegInfo.MinAcc) || !sameFloat(g.RegInfo.MaxSpeed, w.RegInfo.MaxSpeed) ||
				!sameTime(g.PathT, w.PathT) {
				t.Fatalf("visitor:\n got %+v\nwant %+v", g, w)
			}
		}
		// Every strict prefix of a payload, and the payload with a byte
		// more, is refused: the decoder reads exactly what was written.
		cut := rng.Intn(len(payload))
		if _, err := decodeWALRecord(payload[:cut]); err == nil {
			t.Fatalf("decoded %d of %d payload bytes of %+v", cut, len(payload), rec)
		}
		if _, err := decodeWALRecord(append(payload, 0)); err == nil {
			t.Fatalf("decoded %+v with a trailing byte", rec)
		}
	}
	if accepted < 4000 {
		t.Fatalf("only %d of 5000 random records were encoded", accepted)
	}
}

// A record whose fields do not fit its Op is refused, which no writer
// builds; so is a timestamp outside the range of UnixNano, which
// Sighting.Validate keeps out of the store. dst comes back unchanged.
func TestWALRecordEncodingRefuses(t *testing.T) {
	v := &VisitorRecord{OID: "v"}
	year3000 := time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		rec  WALRecord
		want string
	}{
		{WALRecord{Op: WALPut}, "do not fit"},
		{WALRecord{Op: WALRemove, Visitor: v, OID: "v"}, "do not fit"},
		{WALRecord{Op: WALSightingBatch, Visitor: v}, "do not fit"},
		{WALRecord{Op: WALSightingRemove, OID: "x", Sightings: []core.Sighting{{OID: "x"}}}, "do not fit"},
		{WALRecord{Op: "epoch"}, "do not fit"},
		{WALRecord{Op: WALSightingBatch, Sightings: []core.Sighting{{OID: "ok"}, {OID: "late", T: year3000}}}, "outside the range"},
		{WALRecord{Op: WALPut, Visitor: &VisitorRecord{OID: "v", PathT: time.Unix(0, math.MinInt64)}}, "outside the range"},
	} {
		if out, err := appendWALRecord([]byte("keep"), tc.rec); err == nil || string(out) != "keep" {
			t.Errorf("%+v: encoded %q, %v; want an error and dst unchanged", tc.rec, out, err)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %v, want %q", tc.rec, err, tc.want)
		}
	}
}

// registrationPut is the visitor put a leaf's registration log appends for
// one registration.
func registrationPut(oid core.OID) WALRecord {
	return WALRecord{Op: WALPut, Visitor: &VisitorRecord{
		OID:        oid,
		OfferedAcc: 10,
		RegInfo:    core.RegInfo{Registrant: "client-7", DesAcc: 10, MinAcc: 100, MaxSpeed: 3},
		PathT:      time.Date(2026, 10, 16, 9, 0, 0, 123456789, time.UTC),
	}}
}

// TestFileWALAppendAllocs pins a visitor append on a FileWAL at zero
// allocations: the record is encoded into the log's own buffer.
func TestFileWALAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	w, err := OpenFileWAL(filepath.Join(t.TempDir(), "visitors.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rec := registrationPut("obj-000042")
	if got := testing.AllocsPerRun(1000, func() {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("FileWAL.Append of a visitor put = %v allocs, want 0", got)
	}
}

// BenchmarkFileWALAppend measures one visitor put appended to a FileWAL:
// the encode, the write and the flush (no fsync).
func BenchmarkFileWALAppend(b *testing.B) {
	w, err := OpenFileWAL(filepath.Join(b.TempDir(), "visitors.wal"))
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	rec := registrationPut("obj-000042")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}
