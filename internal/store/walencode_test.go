package store

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
)

// The hand-rolled encoder must write what json.Marshal writes for every
// visitor, epoch and sremove record, byte for byte, and refuse what it
// refuses; a sighting batch must round-trip through Replay's json.Unmarshal
// to exactly the record the standard marshaler would have preserved —
// across awkward ids, timestamps and float shapes.
func TestWALRecordEncodingRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	awkwardIDs := []core.OID{
		"plain", "", `qu"ote`, `back\slash`, "uni·cødé-日本", "ctrl\nnew\tline\x01",
		"<html>&amp;</html>", "bs\bff\f", "ls\u2028ps\u2029", "bad\xffutf8\xc3", "del\x7f",
	}
	randomID := func() core.OID { return awkwardIDs[rng.Intn(len(awkwardIDs))] }
	// One in fifty floats and timestamps is one json.Marshal refuses.
	floats := []float64{
		0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
		-1e-6, -math.Nextafter(1e-6, 0), -1e21, -math.Nextafter(1e21, 0), 1.5, -3, 100, 1e-300, 1e300,
	}
	badFloats := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	randomFloat := func() float64 {
		switch rng.Intn(50) {
		case 0:
			return badFloats[rng.Intn(len(badFloats))]
		case 1, 2, 3, 4, 5:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
		}
		return floats[rng.Intn(len(floats))]
	}
	plus2 := time.FixedZone("X", 2*3600)
	randomTime := func() time.Time {
		if rng.Intn(50) == 0 {
			return time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
		}
		switch rng.Intn(7) {
		case 0:
			return time.Time{}
		case 1:
			return time.Date(2026, 7, 28, 12, 0, 0, rng.Intn(1e9), time.UTC)
		case 2:
			return time.Date(2026, 10, 16, 11, 0, 3, rng.Intn(1e9), plus2)
		case 3:
			return time.Date(0, 1, 1, 0, 0, 0, rng.Intn(2)*1e8, time.UTC)
		case 4:
			return time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC)
		case 5:
			return time.Date(2026, 10, 16, 9, 0, 0, 0, time.UTC)
		}
		return time.Date(1999, 1, 2, 3, 4, 5, 0, time.FixedZone("X", 3600)).Add(time.Duration(rng.Int63n(1e15)))
	}
	randomSighting := func() core.Sighting {
		var pos geo.Point
		switch rng.Intn(4) {
		case 0:
			pos = geo.Pt(rng.NormFloat64()*1e6, rng.NormFloat64()*1e6)
		case 1:
			pos = geo.Pt(float64(rng.Intn(1000)), float64(rng.Intn(1000)))
		case 2:
			pos = geo.Pt(rng.Float64()*1e-9, -rng.Float64()*1e12)
		default:
			pos = geo.Pt(0, -0.5)
		}
		return core.Sighting{OID: randomID(), T: randomTime(), Pos: pos, SensAcc: rng.Float64() * 100}
	}
	randomVisitor := func() *VisitorRecord {
		v := &VisitorRecord{OID: randomID(), PathT: randomTime()}
		if rng.Intn(2) == 0 {
			v.ForwardRef = string(randomID())
		} else {
			v.OfferedAcc = randomFloat()
			v.RegInfo = core.RegInfo{Registrant: string(randomID()), DesAcc: randomFloat(), MinAcc: randomFloat(), MaxSpeed: randomFloat()}
		}
		return v
	}
	var memo walTimeMemo
	for i := 0; i < 5000; i++ {
		var rec WALRecord
		switch rng.Intn(6) {
		case 0:
			rec = WALRecord{Op: WALSightingRemove, OID: randomID()}
		case 1:
			rec = WALRecord{Op: WALPut, Visitor: randomVisitor()}
		case 2:
			// A remove record carries only the id; its zero fields are
			// written all the same.
			rec = WALRecord{Op: WALRemove, Visitor: &VisitorRecord{OID: randomID()}}
		case 3:
			rec = WALRecord{Op: WALEpoch, Epoch: rng.Int63n(3) * rng.Int63(), ShardCount: rng.Intn(3) * rng.Intn(1<<20)}
		default:
			batch := make([]core.Sighting, rng.Intn(5))
			for j := range batch {
				batch[j] = randomSighting()
			}
			rec = WALRecord{Op: WALSightingBatch, Sightings: batch}
		}
		std, stdErr := json.Marshal(rec)
		prefix := append(make([]byte, 0, 64), "prefix"...)
		line, err := appendWALRecordJSON(prefix, rec, nil)
		if stdErr != nil {
			if err == nil {
				t.Fatalf("encoded %+v, which json.Marshal refuses (%v): %q", rec, stdErr, line)
			}
			if string(line) != "prefix" {
				t.Fatalf("failed encode changed dst to %q", line)
			}
			if _, err := appendWALRecordJSON(nil, rec, &memo); err == nil {
				t.Fatalf("memoized encode accepted %+v", rec)
			}
			continue
		}
		if err != nil {
			t.Fatalf("encode %+v: %v", rec, err)
		}
		if !bytes.HasPrefix(line, []byte("prefix")) {
			t.Fatalf("encode did not append to dst: %q", line)
		}
		line = line[len("prefix"):]
		if !bytes.HasSuffix(line, []byte{'\n'}) {
			t.Fatalf("encoding not newline-terminated: %q", line)
		}
		// The writer's timestamp memo must never change the serialization.
		memoLine, err := appendWALRecordJSON(nil, rec, &memo)
		if err != nil {
			t.Fatalf("memoized encode: %v", err)
		}
		if !bytes.Equal(line, memoLine) {
			t.Fatalf("memoized encoding differs:\n  %q\n  %q", line, memoLine)
		}
		if rec.Op != WALSightingBatch {
			if want := string(std) + "\n"; string(line) != want {
				t.Fatalf("encoding differs from json.Marshal:\n got %q\nwant %q", line, want)
			}
			continue
		}
		var got WALRecord
		if err := json.Unmarshal(bytes.TrimSuffix(line, []byte{'\n'}), &got); err != nil {
			t.Fatalf("decode %q: %v", line, err)
		}
		// Compare against what the standard encoding preserves.
		var want WALRecord
		if err := json.Unmarshal(std, &want); err != nil {
			t.Fatal(err)
		}
		if got.Op != want.Op || got.OID != want.OID || len(got.Sightings) != len(want.Sightings) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
		for j := range got.Sightings {
			g, w := got.Sightings[j], want.Sightings[j]
			if g.OID != w.OID || !g.T.Equal(w.T) || g.Pos != w.Pos || g.SensAcc != w.SensAcc {
				t.Fatalf("sighting %d mismatch:\n got %+v\nwant %+v", j, g, w)
			}
		}
	}
}

// Non-finite coordinates must fail encoding (invalid JSON would read back
// as corruption) rather than poison the log, and so must a record whose
// fields do not fit its Op, which no writer builds.
func TestWALRecordEncodingRejectsNonFinite(t *testing.T) {
	bad := core.Sighting{OID: "x", Pos: geo.Point{X: 1, Y: 2}}
	bad.Pos.X = nan()
	if _, err := appendWALRecordJSON(nil, WALRecord{Op: WALSightingBatch, Sightings: []core.Sighting{bad}}, nil); err == nil {
		t.Fatal("encoded a NaN coordinate")
	}
	v := &VisitorRecord{OID: "v"}
	for _, rec := range []WALRecord{
		{Op: WALPut},
		{Op: WALRemove, Visitor: v, OID: "v"},
		{Op: WALPut, Visitor: v, Epoch: 1},
		{Op: WALSightingBatch, Visitor: v},
		{Op: WALSightingRemove, OID: "x", Sightings: []core.Sighting{{OID: "x"}}},
		{Op: WALEpoch, Epoch: 1, OID: "x"},
		{Op: WALMark, Epoch: 1},
		{Op: "bogus"},
	} {
		if line, err := appendWALRecordJSON([]byte("keep"), rec, nil); err == nil || string(line) != "keep" {
			t.Errorf("%+v: encoded %q, %v; want an error and dst unchanged", rec, line, err)
		} else if !strings.Contains(err.Error(), "do not fit") {
			t.Errorf("%+v: error %v", rec, err)
		}
	}
}

func nan() float64 { z := 0.0; return z / z }

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
// allocations: the record is encoded by hand into the log's own buffer.
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
