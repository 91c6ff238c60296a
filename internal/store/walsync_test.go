package store

import (
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
)

// summarizeRecord renders a sighting record as a comparable line.
func summarizeRecord(rec WALRecord) string {
	if rec.Op == WALSightingRemove {
		return "remove " + string(rec.OID)
	}
	line := "put"
	for _, s := range rec.Sightings {
		line += fmt.Sprintf(" %s@%v", s.OID, s.Pos)
	}
	return line
}

// segmentOnDisk reads shard's segment file as it is on disk now, without
// going through the WAL, and summarizes its records.
func segmentOnDisk(t *testing.T, dir string, shard int) []string {
	t.Helper()
	data, err := os.ReadFile(segmentPath(dir, shard))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, rec := range decodeLog(t, data) {
		out = append(out, summarizeRecord(rec))
	}
	return out
}

// TestSyncAppendDurable pins the write-through promise with and without
// WithSync: when Put, PutBatch or Deregister returns — with no Flush or
// Close — its record is in the shard's segment file as read from disk, in
// the shard's commit order.
func TestSyncAppendDurable(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []FileWALOption
	}{
		{"fsync", []FileWALOption{WithSync()}},
		{"no fsync", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := OpenShardedWAL(dir, 2, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			db := NewShardedSightingDB(WithSightingWAL(w))
			if err := db.Recover(); err != nil {
				t.Fatal(err)
			}
			want := map[int][]string{}
			check := func(step string) {
				t.Helper()
				for shard := 0; shard < db.NumShards(); shard++ {
					if got := segmentOnDisk(t, dir, shard); !reflect.DeepEqual(got, want[shard]) {
						t.Fatalf("after %s: segment %d on disk holds %q, want %q", step, shard, got, want[shard])
					}
				}
			}
			at := time.Date(2026, 10, 16, 9, 0, 0, 0, time.UTC)
			put := func(id string, x float64) core.Sighting {
				return core.Sighting{OID: core.OID(id), T: at, Pos: geo.Pt(x, x), SensAcc: 5}
			}

			for i := 0; i < 4; i++ {
				s := put(fmt.Sprintf("p%d", i), float64(i))
				db.Put(s)
				want[db.ShardFor(s.OID)] = append(want[db.ShardFor(s.OID)], summarizeRecord(WALRecord{Op: WALSightingBatch, Sightings: []core.Sighting{s}}))
				check("Put " + string(s.OID))
			}

			batch := []core.Sighting{put("b0", 10), put("b1", 11), put("b2", 12), put("b0", 13)}
			if ds := db.PutBatch(batch, []Delta{}); len(ds) != 3 {
				t.Fatalf("PutBatch reported %d deltas, want 3", len(ds))
			}
			groups := map[int][]core.Sighting{}
			for _, s := range batch {
				groups[db.ShardFor(s.OID)] = append(groups[db.ShardFor(s.OID)], s)
			}
			for shard, grp := range groups {
				want[shard] = append(want[shard], summarizeRecord(WALRecord{Op: WALSightingBatch, Sightings: grp}))
			}
			check("PutBatch")

			for _, id := range []core.OID{"p1", "b0", "p3"} {
				if _, _, ok, _ := db.Deregister(id, false); !ok {
					t.Fatalf("Deregister(%s) removed nothing", id)
				}
				want[db.ShardFor(id)] = append(want[db.ShardFor(id)], summarizeRecord(WALRecord{Op: WALSightingRemove, OID: id}))
				check("Deregister " + string(id))
			}
		})
	}
}

// TestPutAllocs pins the allocations of a one-record put on a WAL-backed
// store at zero: the record is encoded into the segment's reused buffer.
func TestPutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	w, err := OpenShardedWAL(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	db := NewShardedSightingDB(WithSightingWAL(w))
	ids := make([]core.OID, 256)
	for i := range ids {
		ids[i] = core.OID(fmt.Sprintf("o%d", i))
	}
	at := time.Date(2026, 10, 16, 9, 0, 0, 0, time.UTC)
	n := 0
	put := func() {
		db.Put(core.Sighting{OID: ids[n%len(ids)], T: at, Pos: geo.Pt(float64(n%97), float64(n%89)), SensAcc: 5})
		n++
	}
	for range ids {
		put()
	}
	if got := testing.AllocsPerRun(2000, put); got > 0 {
		t.Errorf("Put on a WAL-backed store = %v allocs, want 0", got)
	}
}
