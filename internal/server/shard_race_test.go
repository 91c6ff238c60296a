package server_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
	"locsvc/internal/oracle"
	"locsvc/internal/server"
)

// mod is a float remainder for spreading seed positions over a quadrant.
func mod(v, m float64) float64 {
	for v >= m {
		v -= m
	}
	return v
}

// TestShardedStoreConcurrency hammers leaves configured with a sharded
// sighting store: per-leaf in-area updates (the batched pipeline's hot
// path) race against position, range and nearest-neighbor queries from
// every quadrant. Its primary value is running clean under `go test -race`;
// it also checks that no update is lost and every query type keeps
// answering.
func TestShardedStoreConcurrency(t *testing.T) {
	updatesPerObject := 30
	queriesPerWorker := 30
	if testing.Short() {
		updatesPerObject, queriesPerWorker = 6, 8
	}
	ls := newTestLS(t, quadSpec(), server.Options{
		AchievableAcc: 10,
		Shards:        8,
	})

	// 16 objects per quadrant, random-walked inside their quadrant so
	// every update hits the pipeline's in-area path (handover races are
	// TestSystemStress's job).
	const perQuad = 16
	quads := []geo.Rect{
		geo.R(1, 1, 749, 749), geo.R(751, 1, 1499, 749),
		geo.R(1, 751, 749, 1499), geo.R(751, 751, 1499, 1499),
	}
	type tracked struct {
		obj  *client.TrackedObject
		quad geo.Rect
		pos  geo.Point // owned by the object's single mover goroutine
	}
	var objs []*tracked
	for q, r := range quads {
		owner := ls.newClientAt(t, fmt.Sprintf("owner-%d", q), r.Center(), client.Options{Timeout: 10 * time.Second})
		for i := 0; i < perQuad; i++ {
			p := geo.Pt(r.Min.X+mod(float64(i*40), r.Width()-2)+1, r.Min.Y+mod(float64(i*25), r.Height()-2)+1)
			obj, err := owner.Register(ctx(t), sightingAt(fmt.Sprintf("q%d-o%d", q, i), p), 10, 50, 30)
			if err != nil {
				t.Fatal(err)
			}
			objs = append(objs, &tracked{obj: obj, quad: r, pos: p})
		}
	}

	var wg sync.WaitGroup
	var updateErrs, queryErrs, nnMisses atomic.Int64

	// Movers: one goroutine per object, so each object's final position
	// is deterministic from its own update sequence.
	for _, tr := range objs {
		wg.Add(1)
		go func(tr *tracked) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(len(tr.obj.OID()))))
			for i := 0; i < updatesPerObject; i++ {
				p := tr.pos
				p.X += (rng.Float64()*2 - 1) * 40
				p.Y += (rng.Float64()*2 - 1) * 40
				p = tr.quad.ClampPoint(p)
				err := tr.obj.Update(context.Background(), core.Sighting{
					OID: tr.obj.OID(), T: time.Now(), Pos: p, SensAcc: 5,
				})
				if err != nil {
					updateErrs.Add(1)
				} else {
					tr.pos = p
				}
			}
		}(tr)
	}

	// Queriers: all three query types from every quadrant while the
	// movers run.
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			entry, _ := ls.dep.LeafFor(quads[w%4].Center())
			cl, err := client.New(ls.net, msg.NodeID(fmt.Sprintf("shard-q%d", w)), entry, client.Options{Timeout: 10 * time.Second})
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			for i := 0; i < queriesPerWorker; i++ {
				switch i % 3 {
				case 0:
					oid := core.OID(fmt.Sprintf("q%d-o%d", rng.Intn(4), rng.Intn(perQuad)))
					if _, err := cl.PosQuery(context.Background(), oid); err != nil && !errors.Is(err, core.ErrNotFound) {
						t.Errorf("pos query: %v", err)
					}
				case 1:
					x, y := rng.Float64()*1300, rng.Float64()*1300
					if _, err := cl.RangeQueryRect(context.Background(), geo.R(x, y, x+200, y+200), 50, 0.5); err != nil {
						queryErrs.Add(1)
						t.Logf("range query: %v", err)
					}
				case 2:
					p := geo.Pt(rng.Float64()*1400, rng.Float64()*1400)
					if _, err := cl.NeighborQuery(context.Background(), p, 100, 50); err != nil {
						if errors.Is(err, core.ErrNotFound) {
							// Transient: candidates can move out of a
							// collection window while it is collected
							// and movers run (at one shard too).
							nnMisses.Add(1)
						} else {
							queryErrs.Add(1)
							t.Logf("neighbor query: %v", err)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if n := updateErrs.Load(); n > 0 {
		t.Errorf("%d update errors", n)
	}
	if n := queryErrs.Load(); n > 0 {
		t.Errorf("%d range/NN query errors", n)
	}
	if n := nnMisses.Load(); n > 10 {
		t.Errorf("too many transient NN misses: %d", n)
	}

	// No lost updates: every object is queryable at its mover's last
	// accepted position.
	final := ls.newClientAt(t, "shard-final", geo.Pt(750, 750), client.Options{Timeout: 10 * time.Second})
	for _, tr := range objs {
		ld, err := final.PosQuery(ctx(t), tr.obj.OID())
		if err != nil {
			t.Errorf("final query %s: %v", tr.obj.OID(), err)
			continue
		}
		if ld.Pos != tr.pos {
			t.Errorf("object %s at %v, want %v", tr.obj.OID(), ld.Pos, tr.pos)
		}
	}
}

// TestShardCountDoesNotChangeAnswers runs the same small scenario against a
// 1-shard and an 8-shard deployment and checks both answers against the
// registered positions — the shard count must not change service semantics.
// Both deployments see the same registrations, so two answers that agree
// with their truth agree with each other.
func TestShardCountDoesNotChangeAnswers(t *testing.T) {
	const reqAcc, reqOverlap = 50, 0.5
	window := core.AreaFromRect(geo.R(200, 200, 1200, 1200))
	for _, shards := range []int{1, 8} {
		ls := newTestLS(t, quadSpec(), server.Options{AchievableAcc: 10, Shards: shards})
		owner := ls.newClientAt(t, fmt.Sprintf("own-%d", shards), geo.Pt(10, 10), client.Options{Timeout: 10 * time.Second})
		rng := rand.New(rand.NewSource(17))
		truth := oracle.New(ls.dep.Configs)
		for i := 0; i < 40; i++ {
			register(t, owner, truth, sightingAt(fmt.Sprintf("m%d", i), geo.Pt(rng.Float64()*1400+10, rng.Float64()*1400+10)), 10, 50, 30)
		}
		if got := checkedRange(t, owner, truth, window, reqAcc, reqOverlap); len(got) == 0 {
			t.Fatalf("%d shards: range query matched nothing", shards)
		}
	}
}
