package server_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/clock"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/msg"
	"locsvc/internal/oracle"
	"locsvc/internal/server"
	"locsvc/internal/store"
	"locsvc/internal/transport"
)

// The covering-index parity tests drive a two-leaf hierarchy through a
// scripted random mix of every operation that installs, moves, re-annotates
// or removes a sighting, and after each stretch check range and
// nearest-neighbor answers: a leaf's own against a brute-force join of its
// sightings and registrations, a client's against the script's view of
// every object, both under the unprepared predicate (the oracle package).
// They also walk every index entry, memtable and run alike, for the
// covering invariant: a registered object's entry carries its
// registration's current OfferedAcc, an unregistered one's none.

// parityWorld is one deployment under test plus the script's own view of
// which objects exist.
type parityWorld struct {
	t       *testing.T
	rng     *rand.Rand
	net     *transport.Inproc
	dep     *hierarchy.Deployment
	area    geo.Rect
	owner   *client.Client
	querier *client.Client
	objs    map[core.OID]*client.TrackedObject
	order   []core.OID
	nextID  int
}

// leafOptions builds one leaf's options; the parity scenarios differ only
// here.
type leafOptions func(id string, base server.Options) server.Options

func newParityWorld(t *testing.T, seed int64, clk clock.Clock, base server.Options, leaf leafOptions) *parityWorld {
	t.Helper()
	spec := hierarchy.Spec{
		RootArea: geo.R(0, 0, 1000, 500),
		Levels:   []hierarchy.Level{{Rows: 1, Cols: 2}},
	}
	net := transport.NewInproc(transport.InprocOptions{Clock: clk})
	dep, err := hierarchy.DeployWith(net, spec, base, func(cfg store.ConfigRecord, o server.Options) (server.Options, error) {
		if cfg.IsLeaf() {
			return leaf(cfg.ID, o), nil
		}
		return o, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		dep.Close()
		net.Close()
	})
	w := &parityWorld{
		t: t, rng: rand.New(rand.NewSource(seed)), net: net, dep: dep, area: spec.RootArea,
		objs: map[core.OID]*client.TrackedObject{},
	}
	ls := &testLS{net: net, dep: dep}
	w.owner = ls.newClientAt(t, "owner", geo.Pt(10, 10), client.Options{})
	w.querier = ls.newClientAt(t, "querier", geo.Pt(990, 10), client.Options{})
	return w
}

func (w *parityWorld) randomPos() geo.Point {
	return geo.Pt(1+w.rng.Float64()*(w.area.Width()-2), 1+w.rng.Float64()*(w.area.Height()-2))
}

func (w *parityWorld) pick() (core.OID, *client.TrackedObject) {
	oid := w.order[w.rng.Intn(len(w.order))]
	return oid, w.objs[oid]
}

func (w *parityWorld) forget(oid core.OID) {
	delete(w.objs, oid)
	for i, o := range w.order {
		if o == oid {
			w.order = append(w.order[:i], w.order[i+1:]...)
			return
		}
	}
}

func (w *parityWorld) register() {
	oid := core.OID(fmt.Sprintf("o%04d", w.nextID))
	w.nextID++
	des := 5 + float64(w.rng.Intn(40))
	obj, err := w.owner.Register(ctx(w.t), sightingAt(string(oid), w.randomPos()), des, 200, 3)
	if err != nil {
		w.t.Fatalf("register %s: %v", oid, err)
	}
	w.objs[oid] = obj
	w.order = append(w.order, oid)
}

func (w *parityWorld) update(oid core.OID, obj *client.TrackedObject, p geo.Point) {
	if err := obj.Update(ctx(w.t), sightingAt(string(oid), p)); err != nil {
		w.t.Fatalf("update %s to %v: %v", oid, p, err)
	}
}

// step applies one random operation of the scripted mix.
func (w *parityWorld) step() {
	r := w.rng.Intn(100)
	if len(w.order) < 30 {
		r = 0
	}
	switch {
	case r < 22:
		w.register()
	case r < 62: // a few meters: stays in its leaf unless it sits on the border
		oid, obj := w.pick()
		p := obj.LastSent().Pos
		p.X = math.Min(math.Max(p.X+w.rng.Float64()*10-5, 1), w.area.Width()-1)
		p.Y = math.Min(math.Max(p.Y+w.rng.Float64()*10-5, 1), w.area.Height()-1)
		w.update(oid, obj, p)
	case r < 78: // anywhere: a handover out of one leaf and into the other half the time
		oid, obj := w.pick()
		w.update(oid, obj, w.randomPos())
	case r < 92:
		oid, obj := w.pick()
		if _, err := obj.ChangeAcc(ctx(w.t), 5+float64(w.rng.Intn(60)), 300); err != nil {
			w.t.Fatalf("change acc %s: %v", oid, err)
		}
	default:
		oid, obj := w.pick()
		if err := obj.Deregister(ctx(w.t)); err != nil {
			w.t.Fatalf("deregister %s: %v", oid, err)
		}
		w.forget(oid)
	}
}

func (w *parityWorld) steps(n int) {
	for i := 0; i < n; i++ {
		w.step()
	}
}

func (w *parityWorld) leaves() []*server.Server {
	var out []*server.Server
	for _, id := range w.dep.Leaves() {
		out = append(out, w.dep.Servers[id])
	}
	return out
}

// truth is the script's view: every object at the last position it sent,
// with the accuracy its agent offers.
func (w *parityWorld) truth() *oracle.Oracle {
	o := oracle.New(w.dep.Configs)
	for _, obj := range w.objs {
		o.Track(obj)
	}
	return o
}

func (w *parityWorld) randomQuery() (core.Area, float64, float64) {
	size := 20 + w.rng.Float64()*400
	x, y := w.rng.Float64()*(w.area.Width()-size/2), w.rng.Float64()*(w.area.Height()-size/2)
	reqAcc := []float64{12, 30, 100}[w.rng.Intn(3)]
	reqOverlap := []float64{1e-9, 0.25, 0.5, 0.9}[w.rng.Intn(4)]
	return core.AreaFromRect(geo.R(x, y, x+size, y+size)), reqAcc, reqOverlap
}

// check runs the invariant walker and the answer checks and returns how
// many index entries carry an accuracy, per leaf-level server checked.
func (w *parityWorld) check(stage string) []int {
	w.t.Helper()
	var annotated []int
	stored := 0
	for i, srv := range w.leaves() {
		n, violations := srv.CoveringEntriesForTest()
		if len(violations) > 0 {
			w.t.Fatalf("%s: %s breaks the covering-entry invariant:\n%v", stage, srv.ID(), violations)
		}
		annotated = append(annotated, n)
		local := oracle.New(nil)
		for _, e := range srv.OracleEntriesForTest() {
			local.Acked(e.OID, e.LD)
			if i < len(w.dep.Leaves()) {
				stored++
			}
		}
		for q := 0; q < 8; q++ {
			area, reqAcc, reqOverlap := w.randomQuery()
			got := client.RangeResult{Objs: srv.LocalRangeForTest(area, reqAcc, reqOverlap)}
			if err := local.CheckRange(area, reqAcc, reqOverlap, got); err != nil {
				w.t.Fatalf("%s: local range at %s: %v", stage, srv.ID(), err)
			}
		}
	}
	if stored != len(w.objs) {
		w.t.Fatalf("%s: stores hold %d objects, script expects %d", stage, stored, len(w.objs))
	}
	truth := w.truth()
	for q := 0; q < 8; q++ {
		area, reqAcc, reqOverlap := w.randomQuery()
		res, err := w.querier.RangeQueryFull(ctx(w.t), area, reqAcc, reqOverlap)
		if err != nil || res.Partial {
			w.t.Fatalf("%s: range query: partial=%v err=%v", stage, res.Partial, err)
		}
		if err := truth.CheckRange(area, reqAcc, reqOverlap, res); err != nil {
			w.t.Fatalf("%s: client %v", stage, err)
		}
	}
	for q := 0; q < 8; q++ {
		p := w.randomPos()
		reqAcc := []float64{12, 30, 100}[w.rng.Intn(3)]
		nearQual := w.rng.Float64() * 60
		got, err := w.querier.NeighborQuery(ctx(w.t), p, reqAcc, nearQual)
		if cerr := truth.CheckNN(p, reqAcc, nearQual, got, err); cerr != nil {
			w.t.Fatalf("%s: client %v", stage, cerr)
		}
		if err != nil && !errors.Is(err, core.ErrNotFound) || got.Partial {
			w.t.Fatalf("%s: neighbor query at %v: partial=%v err=%v", stage, p, got.Partial, err)
		}
	}
	return annotated
}

func openWALs(t *testing.T, dir, id string, shards int) (*store.FileWAL, *store.ShardedWAL) {
	t.Helper()
	vwal, err := store.OpenFileWAL(filepath.Join(dir, id+".visitors.wal"))
	if err != nil {
		t.Fatal(err)
	}
	swal, err := store.OpenShardedWAL(filepath.Join(dir, id+".sightings"), shards)
	if err != nil {
		t.Fatal(err)
	}
	return vwal, swal
}

func sum(ns []int) int {
	total := 0
	for _, n := range ns {
		total += n
	}
	return total
}

// TestCoveringIndexParity: an all-RAM, WAL-backed, sharded deployment
// through the whole mix, TTL expiry and a crash recovery.
func TestCoveringIndexParity(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewManual(time.Now())
	const ttl = 30 * time.Minute
	base := server.Options{SightingTTL: ttl, JanitorInterval: 20 * time.Millisecond}
	leaf := func(id string, o server.Options) server.Options {
		o.WAL, o.SightingWAL = openWALs(t, dir, id, 4)
		return o
	}
	w := newParityWorld(t, 41, clk, base, leaf)

	w.steps(260)
	if n := sum(w.check("after the mix")); n != len(w.objs) {
		t.Fatalf("%d of %d entries carry an accuracy; every put went through the server", n, len(w.objs))
	}

	// TTL expiry: late in every lease, refresh every other object; then
	// jump past the old leases and let the janitor tear the silent objects
	// down on the tick that jump delivers.
	clk.Advance(ttl * 2 / 3)
	var silent []core.OID
	for i, oid := range append([]core.OID(nil), w.order...) {
		if i%2 == 0 {
			w.update(oid, w.objs[oid], w.objs[oid].LastSent().Pos)
		} else {
			silent = append(silent, oid)
		}
	}
	clk.Advance(ttl / 2)
	for _, oid := range silent {
		w.forget(oid)
	}
	waitFor(t, func() bool {
		n := 0
		for _, srv := range w.leaves() {
			n += srv.SightingCount()
		}
		return n == len(w.objs)
	}, "silent objects to expire")
	w.check("after expiry")

	// Crash recovery: the registration log replays before the sighting
	// segments, so every replayed entry carries its accuracy again.
	victim := w.dep.Leaves()[0]
	cfg := configOf(t, w.dep, victim)
	if err := w.dep.Servers[victim].Close(); err != nil {
		t.Fatal(err)
	}
	o := leaf(string(victim), base)
	srv, err := server.New(cfg, core.AreaFromRect(w.area), w.net, o)
	if err != nil {
		t.Fatal(err)
	}
	w.dep.Servers[victim] = srv
	if n, want := w.check("after WAL recovery")[0], srv.VisitorCount(); n != want || n == 0 {
		t.Fatalf("%d replayed entries carry an accuracy, want all %d", n, want)
	}
	w.steps(120)
	w.check("mix after WAL recovery")
}

func configOf(t *testing.T, dep *hierarchy.Deployment, id msg.NodeID) store.ConfigRecord {
	t.Helper()
	for _, cfg := range dep.Configs {
		if msg.NodeID(cfg.ID) == id {
			return cfg
		}
	}
	t.Fatalf("no config for %s", id)
	return store.ConfigRecord{}
}

// TestCoveringIndexParityTiered: memtables a few dozen records deep, so
// the mix runs across flushes and a compaction and most hits are cold.
func TestCoveringIndexParityTiered(t *testing.T) {
	dir := t.TempDir()
	base := server.Options{JanitorInterval: 10 * time.Millisecond}
	leaf := func(id string, o server.Options) server.Options {
		o.WAL, o.SightingWAL = openWALs(t, dir, id, 2)
		o.Tiering = &store.TierConfig{MemtableBytes: 1, MaxRuns: 2} // floored at 4 KiB per shard
		return o
	}
	w := newParityWorld(t, 43, clock.Real{}, base, leaf)
	tierStats := func() (flushes, compactions int64) {
		for _, srv := range w.leaves() {
			st := srv.SightingsForTest().TierStats()
			flushes += st.Flushes
			compactions += st.Compactions
		}
		return
	}
	for round := 0; ; round++ {
		w.steps(150)
		w.check(fmt.Sprintf("tiered round %d", round))
		if f, c := tierStats(); f >= 4 && c >= 1 {
			break
		}
		if round == 10 {
			f, c := tierStats()
			t.Fatalf("only %d flushes and %d compactions after %d rounds", f, c, round)
		}
	}
	cold := int64(0)
	for _, srv := range w.leaves() {
		cold += srv.SightingsForTest().TierStats().DiskLive
	}
	if cold == 0 {
		t.Fatal("no entry was run-resident when the invariant was walked")
	}
}

// TestCoveringIndexConcurrentChangeAcc races accuracy renegotiations
// against position updates of the same objects: whichever way each pair
// interleaves, the index entry must end up carrying the visitor record's
// final OfferedAcc.
func TestCoveringIndexConcurrentChangeAcc(t *testing.T) {
	base := server.Options{Shards: 2}
	w := newParityWorld(t, 53, clock.Real{}, base, func(_ string, o server.Options) server.Options { return o })
	const objects, rounds = 8, 150
	for i := 0; i < objects; i++ {
		w.register()
	}
	var wg sync.WaitGroup
	for _, oid := range w.order {
		oid, obj := oid, w.objs[oid]
		home := obj.LastSent().Pos
		wg.Add(2)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				p := geo.Pt(home.X+float64(r%3)-1, home.Y)
				if err := obj.Update(ctx(t), sightingAt(string(oid), p)); err != nil {
					t.Errorf("update %s: %v", oid, err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := obj.ChangeAcc(ctx(t), float64(10+r%50), 300); err != nil {
					t.Errorf("change acc %s: %v", oid, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := sum(w.check("after the race")); n != objects {
		t.Fatalf("%d of %d entries carry an accuracy", n, objects)
	}
}
