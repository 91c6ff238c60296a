package store_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/oracle"
	"locsvc/internal/store"
)

// crashOp is one operation an updater issued on its object: a put at pos,
// or a deregistration.
type crashOp struct {
	del bool
	pos geo.Point
}

// crashHistory is one object's operations in issue order; the first acked
// of them have been acknowledged.
type crashHistory struct {
	mu    sync.Mutex
	ops   []crashOp
	acked int
}

// TestCrashImageKeepsAcknowledged copies a WAL-backed store's segment
// directory byte for byte while 8 updaters keep writing through an update
// pipeline — what a kill of the process would leave on disk — and recovers
// the copy. Every object must come back as its last operation acknowledged
// before the copy started left it, or as an operation issued after that:
// an acknowledged position at it or a later one, an acknowledged
// deregistration still removed. internal/oracle judges each object's
// position and a whole-area range query over the recovered store.
func TestCrashImageKeepsAcknowledged(t *testing.T) {
	const (
		seed     = 65
		updaters = 8
		perOwner = 16
		images   = 6
		acc      = 5.0
	)
	dir := filepath.Join(t.TempDir(), "log")
	wal, err := store.OpenShardedWAL(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	db := store.NewShardedSightingDB(store.WithSightingWAL(wal))
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	pipe := store.NewUpdatePipeline(db)

	ids := make([]core.OID, updaters*perOwner)
	hist := make([]crashHistory, len(ids))
	for i := range ids {
		ids[i] = core.OID(fmt.Sprintf("o%03d", i))
	}
	at := time.Date(2026, 10, 19, 9, 0, 0, 0, time.UTC)
	var acks atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < updaters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(g)))
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				i := g*perOwner + rng.Intn(perOwner)
				op := crashOp{del: rng.Intn(10) == 0, pos: geo.Pt(10+rng.Float64()*980, 10+rng.Float64()*980)}
				h := &hist[i]
				h.mu.Lock()
				h.ops = append(h.ops, op)
				seq := len(h.ops)
				h.mu.Unlock()
				if op.del {
					if _, _, _, err := db.Deregister(ids[i], false); err != nil {
						t.Error(err)
						return
					}
				} else {
					pipe.Put(core.Sighting{OID: ids[i], T: at.Add(time.Duration(n) * time.Millisecond), Pos: op.pos, SensAcc: acc})
				}
				h.mu.Lock()
				h.acked = seq
				h.mu.Unlock()
				acks.Add(1)
			}
		}(g)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	rng := rand.New(rand.NewSource(seed))
	points := make([]int64, images)
	for i := range points {
		points[i] = 200 + rng.Int63n(4000)
	}
	sort.Slice(points, func(a, b int) bool { return points[a] < points[b] })
	world := core.AreaFromRect(geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)})
	for k, point := range points {
		for acks.Load() < point {
			runtime.Gosched()
		}
		acked := make([]int, len(hist))
		for i := range hist {
			hist[i].mu.Lock()
			acked[i] = hist[i].acked
			hist[i].mu.Unlock()
		}
		image := copyDir(t, dir, filepath.Join(t.TempDir(), fmt.Sprintf("image-%d", k)))
		truth := oracle.New(nil)
		for i := range hist {
			h := &hist[i]
			h.mu.Lock()
			if a := acked[i]; a > 0 && !h.ops[a-1].del {
				truth.Acked(ids[i], core.LocationDescriptor{Pos: h.ops[a-1].pos, Acc: acc})
			}
			for _, op := range h.ops[acked[i]:] {
				if op.del {
					truth.Lost(ids[i])
				} else {
					truth.Sent(ids[i], core.LocationDescriptor{Pos: op.pos, Acc: acc})
				}
			}
			h.mu.Unlock()
		}
		checkRecovered(t, image, ids, truth, world, fmt.Sprintf("image %d at %d acks", k, point))
	}
}

// copyDir copies every file of dir into a new directory to, byte for byte,
// and returns to.
func copyDir(t *testing.T, dir, to string) string {
	t.Helper()
	if err := os.MkdirAll(to, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// checkRecovered opens the segment directory image, recovers a store from
// it and checks every object's position, and a range query over world,
// against truth.
func checkRecovered(t *testing.T, image string, ids []core.OID, truth *oracle.Oracle, world core.Area, what string) {
	t.Helper()
	wal, err := store.OpenShardedWAL(image, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	db := store.NewShardedSightingDB(store.WithSightingWAL(wal))
	if err := db.Recover(); err != nil {
		t.Fatalf("%s: recovering: %v", what, err)
	}
	for _, id := range ids {
		s, ok := db.Get(id)
		var err error
		if !ok {
			err = core.ErrNotFound
		}
		if err := truth.CheckPos(id, core.LocationDescriptor{Pos: s.Pos, Acc: s.SensAcc}, err); err != nil {
			t.Errorf("%s: %v", what, err)
		}
	}
	var res client.RangeResult
	db.SearchArea(world.Bounds(), func(s core.Sighting) bool {
		res.Objs = append(res.Objs, core.Entry{OID: s.OID, LD: core.LocationDescriptor{Pos: s.Pos, Acc: s.SensAcc}})
		return true
	})
	if err := truth.CheckRange(world, 100, 0.5, res); err != nil {
		t.Errorf("%s: %v", what, err)
	}
}
