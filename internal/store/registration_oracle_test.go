package store

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/spatial"
)

// regModel is the brute-force model of a store's objects: each object's
// sighting, the expiry of that sighting and its registration, kept apart
// from the store and compared with it after every step.
type regModel struct {
	sightings map[core.OID]core.Sighting
	expires   map[core.OID]time.Time
	regs      map[core.OID]Registration
}

// regWorld is one randomized run: a store over both logs, its model and
// the clock they share.
type regWorld struct {
	t      *testing.T
	rng    *rand.Rand
	dir    string
	shards int
	tiered bool
	now    time.Time
	ttl    time.Duration
	db     *ShardedSightingDB
	wal    *ShardedWAL
	regLog *FileWAL
	m      regModel
	ids    []core.OID
}

func (w *regWorld) clock() time.Time { return w.now }

// open opens the logs under dir and recovers a store from them.
func (w *regWorld) open() {
	w.t.Helper()
	var err error
	if w.wal, err = OpenShardedWAL(filepath.Join(w.dir, "sightings"), w.shards); err != nil {
		w.t.Fatal(err)
	}
	if w.regLog, err = OpenFileWAL(filepath.Join(w.dir, "registrations.wal")); err != nil {
		w.t.Fatal(err)
	}
	opts := []SightingDBOption{WithShards(w.shards), WithTTL(w.ttl), WithClock(w.clock),
		WithSightingWAL(w.wal), WithRegistrationLog(w.regLog)}
	if w.tiered {
		opts = append(opts, WithTiering(TierConfig{MemtableBytes: 1, MaxRuns: 2}))
	}
	w.db = NewShardedSightingDB(opts...)
	if err := w.db.RecoverBackground(); err != nil {
		w.t.Fatal(err)
	}
	if err := w.db.WaitRecovered(); err != nil {
		w.t.Fatal(err)
	}
}

func (w *regWorld) close() {
	w.t.Helper()
	if err := w.wal.Close(); err != nil {
		w.t.Fatal(err)
	}
	if err := w.regLog.Close(); err != nil {
		w.t.Fatal(err)
	}
}

func (w *regWorld) id() core.OID { return w.ids[w.rng.Intn(len(w.ids))] }

func (w *regWorld) sighting(id core.OID) core.Sighting {
	return core.Sighting{OID: id, T: w.now, Pos: geo.Pt(w.rng.Float64()*1000, w.rng.Float64()*1000), SensAcc: 5}
}

func (w *regWorld) registration() Registration {
	return Registration{
		RegInfo:    core.RegInfo{Registrant: "c", DesAcc: float64(w.rng.Intn(40)), MinAcc: 100, MaxSpeed: 3},
		OfferedAcc: float64(1 + w.rng.Intn(60)),
		PathT:      w.now,
	}
}

// put records a committed sighting in the model.
func (w *regWorld) put(s core.Sighting) {
	w.m.sightings[s.OID] = s
	w.m.expires[s.OID] = w.now.Add(w.ttl)
}

func (w *regWorld) forget(id core.OID) {
	delete(w.m.sightings, id)
	delete(w.m.expires, id)
	delete(w.m.regs, id)
}

// step applies one random operation to the store and the model.
func (w *regWorld) step() string {
	w.now = w.now.Add(time.Second)
	switch r := w.rng.Intn(100); {
	case r < 20: // registration, or a handover arrival
		s, reg := w.sighting(w.id()), w.registration()
		if _, err := w.db.Register(s, reg); err != nil {
			w.t.Fatal(err)
		}
		w.put(s)
		w.m.regs[s.OID] = reg
		return "register " + string(s.OID)
	case r < 50: // an update, registered or not
		s := w.sighting(w.id())
		NewUpdatePipeline(w.db).Put(s)
		w.put(s)
		return "update " + string(s.OID)
	case r < 55: // a batch with superseded updates
		batch := []core.Sighting{w.sighting(w.id()), w.sighting(w.id()), w.sighting(w.id())}
		batch = append(batch, w.sighting(batch[0].OID))
		w.db.PutBatch(batch, nil)
		for _, s := range batch {
			w.put(s)
		}
		return "batch"
	case r < 63: // an accuracy change
		id, acc := w.id(), float64(1+w.rng.Intn(60))
		ok, err := w.db.UpdateRegistration(id, func(reg *Registration) bool {
			reg.OfferedAcc = acc
			return true
		})
		if err != nil {
			w.t.Fatal(err)
		}
		if _, want := w.m.regs[id]; ok != want {
			w.t.Fatalf("UpdateRegistration(%s) = %v, model registered %v", id, ok, want)
		}
		if ok {
			reg := w.m.regs[id]
			reg.OfferedAcc = acc
			w.m.regs[id] = reg
		}
		return "change acc " + string(id)
	case r < 66: // a registration without a sighting
		id, reg := w.id(), w.registration()
		if err := w.db.PutRegistration(id, reg); err != nil {
			w.t.Fatal(err)
		}
		w.m.regs[id] = reg
		return "put registration " + string(id)
	case r < 76: // a departure or a deregistration
		id := w.id()
		d, lastT, ok, err := w.db.Deregister(id, false)
		if err != nil {
			w.t.Fatal(err)
		}
		_, registered := w.m.regs[id]
		s, sighted := w.m.sightings[id]
		if ok != (registered || sighted) {
			w.t.Fatalf("Deregister(%s) = %v, model registered %v, sighted %v", id, ok, registered, sighted)
		}
		if ok {
			if removed := d.Op == DeltaRemove; removed != sighted || (sighted && (d.Old != s.Pos || !lastT.Equal(s.T))) {
				w.t.Fatalf("Deregister(%s) = %+v at %v, model holds %+v (sighted %v)", id, d, lastT, s, sighted)
			}
			w.forget(id)
		}
		return "deregister " + string(id)
	case r < 82: // time passes; the janitor's expiry round
		w.now = w.now.Add(time.Duration(w.rng.Intn(int(w.ttl/2/time.Second))) * time.Second)
		w.expire()
		return "expire"
	case r < 88:
		if !w.tiered {
			return "no flush"
		}
		// The janitor's order: expiry first, so a compaction never drops
		// a record the model still holds.
		w.expire()
		if err := w.db.MaintainTiers(); err != nil {
			w.t.Fatal(err)
		}
		return "flush"
	default:
		w.reopen()
		return "reopen"
	}
}

// expire runs one janitor round: the Expired scan must name exactly the
// model's expired sightings, and each goes with its registration.
func (w *regWorld) expire() {
	w.t.Helper()
	var want []core.OID
	for id, at := range w.m.expires {
		if w.now.After(at) {
			want = append(want, id)
		}
	}
	got := w.db.Expired()
	sortOIDs(got)
	sortOIDs(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		w.t.Fatalf("Expired() = %v, model %v", got, want)
	}
	for _, id := range got {
		if _, _, ok, err := w.db.Deregister(id, true); err != nil || !ok {
			w.t.Fatalf("Deregister(%s, expired) = %v, %v", id, ok, err)
		}
		w.forget(id)
	}
}

// reopen closes the store and recovers a new one from both logs. Recovered
// memtable records start a fresh lease, run records keep theirs.
func (w *regWorld) reopen() {
	w.t.Helper()
	if err := w.wal.Flush(); err != nil {
		w.t.Fatal(err)
	}
	w.close()
	w.open()
	for _, sh := range w.db.shards {
		for id, o := range sh.objs {
			if o.mem == memSighting {
				w.m.expires[id] = unixTime(o.expires)
			}
		}
	}
}

// check compares db with the model: every object's sighting and
// registration, and the accuracy of every hit SearchBuckets and
// NearestEntries deliver, from the memtable and from the runs alike —
// the registration's OfferedAcc for a registered object, AccUnknown for
// any other.
func (w *regWorld) check(db *ShardedSightingDB, after string) {
	w.t.Helper()
	for _, id := range w.ids {
		reg, s, registered, sighted := db.Lookup(id)
		wantReg, wantRegistered := w.m.regs[id]
		wantS, wantSighted := w.m.sightings[id]
		if registered != wantRegistered || (registered && (reg.OfferedAcc != wantReg.OfferedAcc || reg.RegInfo != wantReg.RegInfo || !reg.PathT.Equal(wantReg.PathT))) {
			w.t.Fatalf("after %s: %s registration %+v (%v), model %+v (%v)", after, id, reg, registered, wantReg, wantRegistered)
		}
		if sighted != wantSighted || (sighted && (s.Pos != wantS.Pos || !s.T.Equal(wantS.T))) {
			w.t.Fatalf("after %s: %s sighting %+v (%v), model %+v (%v)", after, id, s, sighted, wantS, wantSighted)
		}
	}
	if n := db.RegistrationCount(); n != len(w.m.regs) {
		w.t.Fatalf("after %s: %d registrations, model %d", after, n, len(w.m.regs))
	}
	wantAcc := func(id core.OID) float64 {
		if reg, ok := w.m.regs[id]; ok {
			return reg.OfferedAcc
		}
		return AccUnknown
	}
	hits := func(what string, visit func(func(id core.OID, pos geo.Point, acc float64))) {
		seen := map[core.OID]bool{}
		visit(func(id core.OID, pos geo.Point, acc float64) {
			if seen[id] {
				w.t.Fatalf("after %s: %s delivered %s twice", after, what, id)
			}
			seen[id] = true
			if s, ok := w.m.sightings[id]; !ok || s.Pos != pos {
				w.t.Fatalf("after %s: %s delivered %s at %v, model %+v (%v)", after, what, id, pos, s, ok)
			}
			if acc != wantAcc(id) {
				w.t.Fatalf("after %s: %s delivered %s with accuracy %v, want %v", after, what, id, acc, wantAcc(id))
			}
		})
		if len(seen) != len(w.m.sightings) {
			w.t.Fatalf("after %s: %s delivered %d objects, model holds %d", after, what, len(seen), len(w.m.sightings))
		}
	}
	everywhere := geo.R(-1, -1, 1001, 1001)
	hits("SearchBuckets", func(f func(core.OID, geo.Point, float64)) {
		db.SearchBuckets(everywhere, func(items []spatial.Item, _ geo.Rect, inside bool) bool {
			for _, it := range items {
				if inside || everywhere.ContainsClosed(it.Pos) {
					f(it.ID, it.Pos, it.Acc)
				}
			}
			return true
		})
	})
	hits("NearestEntries", func(f func(core.OID, geo.Point, float64)) {
		last := 0.0
		db.NearestEntries(geo.Pt(w.rng.Float64()*1000, w.rng.Float64()*1000), func(id core.OID, pos geo.Point, acc, dist float64) bool {
			if dist < last-1e-9 || math.IsNaN(dist) {
				w.t.Fatalf("after %s: NearestEntries out of order at %s", after, id)
			}
			last = dist
			f(id, pos, acc)
			return true
		})
	})
	if err := db.indexPayloadErr(); err != nil {
		w.t.Fatalf("after %s: %v", after, err)
	}
}

// TestRegistrationOracle drives a store over both logs through random
// sequences of registrations, updates, handover arrivals and departures,
// accuracy changes, deregistrations, expiry, flushes and close-and-reopen,
// and after every step compares
// each object's sighting, registration and index-entry accuracy with a
// brute-force model — at 1 and 4 shards, tiered and untiered.
func TestRegistrationOracle(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, tiered := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/tiered=%v", shards, tiered), func(t *testing.T) {
				w := &regWorld{
					t: t, rng: rand.New(rand.NewSource(int64(7*shards) + map[bool]int64{false: 0, true: 1}[tiered])),
					dir: t.TempDir(), shards: shards, tiered: tiered,
					now: time.Date(2026, 10, 16, 9, 0, 0, 0, time.UTC), ttl: 100 * time.Second,
					m: regModel{
						sightings: map[core.OID]core.Sighting{},
						expires:   map[core.OID]time.Time{},
						regs:      map[core.OID]Registration{},
					},
				}
				for i := 0; i < 300; i++ {
					w.ids = append(w.ids, core.OID(fmt.Sprintf("o%03d", i)))
				}
				w.open()
				defer w.close()
				const steps = 400
				coldSteps := 0
				for i := 0; i < steps; i++ {
					what := w.step()
					w.check(w.db, fmt.Sprintf("step %d (%s)", i, what))
					if w.db.TierStats().DiskLive > 0 {
						coldSteps++
					}
				}
				if tiered && coldSteps < steps/5 {
					t.Fatalf("only %d of %d steps were checked with run-resident records", coldSteps, steps)
				}
			})
		}
	}
}
