package store

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/spatial"
)

// tableWorld is a regWorld whose standby keeps logs of its own, so the two
// stores can swap roles: a promoted standby flushes and compacts runs with
// object tables of its own, and the demoted primary receives installs over
// the tables it wrote.
type tableWorld struct {
	*regWorld
	otherDir    string
	otherWAL    *ShardedWAL
	otherLog    *FileWAL
	judged      int            // run hits the tables judged
	kinds       map[string]int // steps taken, by kind
	compactions int64
}

func newTableWorld(t *testing.T, shards int, seed int64) *tableWorld {
	w := &tableWorld{
		regWorld: &regWorld{
			t: t, rng: rand.New(rand.NewSource(seed)),
			dir: t.TempDir(), shards: shards, tiered: true,
			now: time.Date(2026, 10, 19, 9, 0, 0, 0, time.UTC), ttl: 100 * time.Second,
			m: regModel{
				sightings: map[core.OID]core.Sighting{},
				expires:   map[core.OID]time.Time{},
				regs:      map[core.OID]Registration{},
			},
		},
		otherDir: t.TempDir(),
		kinds:    map[string]int{},
	}
	for i := 0; i < 300; i++ {
		w.ids = append(w.ids, core.OID(fmt.Sprintf("o%03d", i)))
	}
	w.open()
	var err error
	if w.otherWAL, err = OpenShardedWAL(filepath.Join(w.otherDir, "sightings"), shards); err != nil {
		t.Fatal(err)
	}
	if w.otherLog, err = OpenFileWAL(filepath.Join(w.otherDir, "registrations.wal")); err != nil {
		t.Fatal(err)
	}
	w.standby = NewShardedSightingDB(w.options(w.otherWAL, w.otherLog)...)
	if err := w.standby.Recover(); err != nil {
		t.Fatal(err)
	}
	w.standby.SetReplStandby(true)
	t.Cleanup(func() {
		w.close()
		w.otherWAL.Close()
		w.otherLog.Close()
	})
	return w
}

// step applies one random operation: one of regWorld's (puts, removes,
// registrations, deregistrations, accuracy changes, expiry, janitor
// flushes and compactions, reopens, snapshot installs into the standby),
// a burst of puts that the inline backpressure flushes, an install of the
// primary's runs into the standby, or a failover.
func (w *tableWorld) step() string {
	db, before := w.db, w.db.TierStats().Compactions
	var what string
	switch r := w.rng.Intn(100); {
	case r < 84:
		what = w.regWorld.step()
	case r < 90:
		what = w.burst()
	case r < 95:
		what = w.installRuns()
	default:
		what = w.failover()
	}
	if w.db == db {
		w.compactions += w.db.TierStats().Compactions - before
	}
	w.kinds[strings.Fields(what)[0]]++
	return what
}

// burst puts every object once without a janitor pass: each shard's
// memtable outgrows twice its budget, and the update path flushes inline.
func (w *tableWorld) burst() string {
	flushes := w.db.TierStats().Flushes
	for _, id := range w.ids {
		s := w.sighting(id)
		w.db.Put(s)
		w.put(s)
	}
	if w.db.TierStats().Flushes == flushes {
		w.t.Fatal("a burst past twice the memtable budget flushed nothing inline")
	}
	return "burst"
}

// installRuns installs the primary's run lists into the standby, which may
// hold tables of its own from a time as primary, judges the standby's run
// hits there, and then brings it level with a snapshot.
func (w *tableWorld) installRuns() string {
	fetch := func(name string) error {
		return w.standby.ReplFetchRun(name, func(off int64, max int) ([]byte, bool, error) {
			data, _, eof, err := w.db.ReadRunChunk(name, off, max)
			return data, eof, err
		})
	}
	for shard, sh := range w.db.shards {
		sh.mu.RLock()
		names, next := runBaseNames(sh.tier.runs), sh.tier.nextSeq.Load()
		sh.mu.RUnlock()
		if err := w.standby.ReplInstallRuns(shard, names, next, false, fetch); err != nil {
			w.t.Fatal(err)
		}
	}
	w.judgeTables(w.standby, "a run install into the standby")
	w.installSnapshot()
	return "install runs"
}

// failover brings the standby level with a snapshot and swaps the roles.
// The promoted store leased its memtable sightings at the install.
func (w *tableWorld) failover() string {
	w.installSnapshot()
	w.db, w.standby = w.standby, w.db
	w.dir, w.otherDir = w.otherDir, w.dir
	w.wal, w.otherWAL = w.otherWAL, w.wal
	w.regLog, w.otherLog = w.otherLog, w.regLog
	w.db.SetReplStandby(false)
	w.standby.SetReplStandby(true)
	for _, sh := range w.db.shards {
		for id, o := range sh.objs {
			if o.mem == memSighting {
				w.m.expires[id] = unixTime(o.expires)
			}
		}
	}
	return "failover"
}

// judgeTables compares, on every run hit of db, the run table's verdict
// with the id lookup's: the same gone, and while not gone the same
// accuracy. It counts the hits the tables judged.
func (w *tableWorld) judgeTables(db *ShardedSightingDB, after string) {
	w.t.Helper()
	var bad string
	for _, sh := range db.shards {
		sh.mu.RLock()
		var buf []byte
		for k, r := range sh.tier.runs {
			for i := range r.leaves {
				entries, err := r.readLeaf(i, &buf, nil)
				if err != nil {
					bad = err.Error()
				}
				for j, e := range entries {
					acc, gone, ok := r.tableVerdict(i*runLeafEntries + j)
					if !ok {
						continue
					}
					w.judged++
					rec, _, _ := decodeRunRecord(e.rec, 0)
					wantAcc, wantGone := sh.shadowed(db.tier, sh.tier.runs[:k], rec.s.OID)
					if gone != wantGone || !gone && acc != wantAcc {
						bad = fmt.Sprintf("%s in run %d of %d (seq %d) at slot %d: table (acc %v, gone %v), id lookup (acc %v, gone %v)",
							rec.s.OID, k, len(sh.tier.runs), r.seq, i*runLeafEntries+j, acc, gone, wantAcc, wantGone)
					}
				}
			}
		}
		sh.mu.RUnlock()
		if bad != "" {
			w.t.Fatalf("after %s: %s", after, bad)
		}
	}
}

// searchArea compares SearchArea over a random rectangle with a scan of
// the model.
func (w *tableWorld) searchArea(after string) {
	w.t.Helper()
	x, y := w.rng.Float64()*800, w.rng.Float64()*800
	rect := geo.R(x, y, x+50+w.rng.Float64()*400, y+50+w.rng.Float64()*400)
	got := map[core.OID]core.Sighting{}
	w.db.SearchArea(rect, func(s core.Sighting) bool {
		if _, dup := got[s.OID]; dup {
			w.t.Fatalf("after %s: SearchArea(%v) delivered %s twice", after, rect, s.OID)
		}
		got[s.OID] = s
		return true
	})
	want := map[core.OID]core.Sighting{}
	for id, s := range w.m.sightings {
		if rect.ContainsClosed(s.Pos) {
			want[id] = s
		}
	}
	diffStates(w.t, fmt.Sprintf("after %s: SearchArea(%v)", after, rect), got, want)
}

// TestRunTableVerdictMatchesIdLookup drives a tiered store, at one and four
// shards, through random puts, removes, registrations and deregistrations,
// accuracy changes, expiry sweeps, janitor and inline-backpressure
// flushes, compactions, reopens, run and snapshot installs into a standby
// and failovers to it. After every step each run hit the run tables can
// judge, on both stores, gets the verdict the id lookup gives (a hit they
// cannot judge goes to the id lookup in the first place), and SearchArea,
// SearchBuckets and NearestEntries answer what the model holds.
func TestRunTableVerdictMatchesIdLookup(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		seed   int64
	}{
		{"shards=1", 1, 64},
		{"shards=4", 4, 67},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newTableWorld(t, tc.shards, tc.seed)
			const steps = 400
			for i := 0; i < steps; i++ {
				what := w.step()
				after := fmt.Sprintf("step %d (%s)", i, what)
				w.judgeTables(w.db, after)
				w.judgeTables(w.standby, after)
				w.check(w.db, after)
				w.searchArea(after)
			}
			for _, kind := range []string{"update", "deregister", "register", "change", "expire", "flush", "burst", "reopen", "install", "failover", "snapshot"} {
				if w.kinds[kind] == 0 {
					t.Errorf("no %q step in %d: %v", kind, steps, w.kinds)
				}
			}
			if w.compactions == 0 {
				t.Errorf("no compaction in %d steps", steps)
			}
			if w.judged < 10*steps {
				t.Errorf("the tables judged %d run hits in %d steps", w.judged, steps)
			}
			t.Logf("%d run hits judged by the tables, %d compactions, steps %v", w.judged, w.compactions, w.kinds)
		})
	}

	// A nearest-neighbor stream whose shards flush between its advances:
	// the cursors' pinned run lists stop being current, and objects they
	// have not reached move next to the query point first. Every object
	// must still come out once, as the store holds it.
	t.Run("nearest", func(t *testing.T) {
		w := newTableWorld(t, 2, 7)
		for _, id := range w.ids {
			s, reg := w.sighting(id), w.registration()
			if _, err := w.db.Register(s, reg); err != nil {
				t.Fatal(err)
			}
			w.put(s)
			w.m.regs[id] = reg
		}
		flushAll(t, w.db)
		for _, id := range w.ids[:100] {
			s := w.sighting(id)
			w.db.Put(s)
			w.put(s)
		}
		flushAll(t, w.db)
		if w.judgeTables(w.db, "the setup"); w.judged == 0 || w.db.TierStats().MemtableBytes != 0 {
			t.Fatalf("the setup left %d run hits the tables judge and %d memtable bytes", w.judged, w.db.TierStats().MemtableBytes)
		}
		p := geo.Pt(500, 500)
		got := map[core.OID]core.Sighting{}
		w.db.NearestFunc(p, func(s core.Sighting, _ float64) bool {
			if _, dup := got[s.OID]; dup {
				t.Fatalf("NearestFunc delivered %s twice", s.OID)
			}
			got[s.OID] = s
			if len(got) == 3 {
				moved := 0
				for _, id := range w.ids {
					if _, seen := got[id]; !seen && moved < 20 {
						s := core.Sighting{OID: id, T: w.now, Pos: geo.Pt(p.X+float64(moved)/100, p.Y), SensAcc: 5}
						w.db.Put(s)
						w.put(s)
						moved++
					}
				}
				flushAll(t, w.db)
			}
			return true
		})
		diffStates(t, "NearestFunc with flushes between advances", got, w.m.sightings)
	})

	// Registered objects updated, deregistered and re-registered while
	// maintenance flushes and compacts and queries read the tables; then,
	// at rest, every verdict and every SearchBuckets entry is checked.
	t.Run("concurrent", func(t *testing.T) {
		const writers, perWriter = 2, 150
		ops := 3000
		if testing.Short() {
			ops = 1000
		}
		db := NewShardedSightingDB(WithShards(2), WithSightingWAL(tempShardedWAL(t, 2)),
			WithTiering(TierConfig{MemtableBytes: 1, MaxRuns: 2}))
		if err := db.Recover(); err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var maint, wg sync.WaitGroup
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
		type state struct {
			sightings map[core.OID]core.Sighting
			accs      map[core.OID]float64
		}
		final := make([]state, writers)
		base := time.Unix(5000, 0)
		for wr := 0; wr < writers; wr++ {
			wg.Add(1)
			go func(wr int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(wr)))
				st := state{map[core.OID]core.Sighting{}, map[core.OID]float64{}}
				reg := func(id core.OID) Registration {
					acc := float64(1 + rng.Intn(60))
					st.accs[id] = acc
					return Registration{RegInfo: core.RegInfo{Registrant: "c", MinAcc: 100, MaxSpeed: 3}, OfferedAcc: acc}
				}
				for i := 0; i < ops; i++ {
					id := core.OID(fmt.Sprintf("c%d-%03d", wr, rng.Intn(perWriter)))
					s := core.Sighting{OID: id, T: base.Add(time.Duration(i)), Pos: geo.Pt(rng.Float64()*1000, rng.Float64()*1000), SensAcc: 5}
					var err error
					switch r := rng.Intn(20); {
					case r < 3:
						_, err = db.Register(s, reg(id))
						st.sightings[id] = s
					case r < 4:
						err = db.PutRegistration(id, reg(id))
					case r < 6:
						_, _, _, err = db.Deregister(id, false)
						delete(st.sightings, id)
						delete(st.accs, id)
					default:
						db.Put(s)
						st.sightings[id] = s
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
				final[wr] = st
			}(wr)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops/4; i++ {
				seen := map[core.OID]bool{}
				db.SearchBuckets(geo.R(0, 0, 1000, 1000), func(items []spatial.Item, _ geo.Rect, _ bool) bool {
					for _, it := range items {
						if seen[it.ID] {
							t.Errorf("SearchBuckets delivered %s twice in one search", it.ID)
							return false
						}
						seen[it.ID] = true
					}
					return true
				})
			}
		}()
		wg.Wait()
		close(stop)
		maint.Wait()
		if st := db.TierStats(); st.Flushes < 2 || st.Compactions < 1 {
			t.Fatalf("too tame: %d flushes, %d compactions", st.Flushes, st.Compactions)
		}
		w := &tableWorld{regWorld: &regWorld{t: t}}
		w.judgeTables(db, "the concurrent run")
		if w.judged == 0 {
			t.Fatal("the tables judged no run hit")
		}
		want := map[core.OID]core.Sighting{}
		got := map[core.OID]core.Sighting{}
		for _, st := range final {
			for id, s := range st.sightings {
				want[id] = s
			}
		}
		db.SearchBuckets(geo.R(-1, -1, 1001, 1001), func(items []spatial.Item, _ geo.Rect, _ bool) bool {
			for _, it := range items {
				wr := int(it.ID[1] - '0')
				if acc, ok := final[wr].accs[it.ID]; !ok && it.Acc != AccUnknown || ok && it.Acc != acc {
					t.Fatalf("SearchBuckets delivered %s with accuracy %v, want %v (registered %v)", it.ID, it.Acc, acc, ok)
				}
				got[it.ID] = want[it.ID]
				if it.Pos != want[it.ID].Pos {
					t.Fatalf("SearchBuckets delivered %s at %v, want %v", it.ID, it.Pos, want[it.ID].Pos)
				}
			}
			return true
		})
		diffStates(t, "SearchBuckets after the concurrent run", got, want)
	})
}
