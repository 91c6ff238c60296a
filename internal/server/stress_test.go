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
	"locsvc/internal/hierarchy"
	"locsvc/internal/msg"
	"locsvc/internal/server"
)

// TestSystemStress drives the whole system concurrently — moving objects
// triggering handovers, clients querying from every leaf, soft-state expiry
// running — and verifies global invariants at the end: no lost objects, no
// duplicated agents, consistent forwarding paths.
func TestSystemStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	spec := hierarchy.Spec{
		RootArea: geo.R(0, 0, 1600, 1600),
		Levels:   []hierarchy.Level{{Rows: 2, Cols: 2}, {Rows: 2, Cols: 2}},
	}
	// Soft-state expiry stays off: objects go quiet once their mover
	// finishes, and this test checks path invariants, not expiry (which
	// TestSoftStateExpiry covers).
	ls := newTestLS(t, spec, server.Options{
		AchievableAcc:   10,
		EnableAreaCache: true, EnableAgentCache: true,
	})

	const numObjects = 64
	const workers = 8
	type tracked struct {
		mu  sync.Mutex
		obj *client.TrackedObject
		pos geo.Point
	}
	objs := make([]*tracked, numObjects)
	owner := ls.newClientAt(t, "owner", geo.Pt(10, 10), client.Options{Timeout: 10 * time.Second})
	for i := range objs {
		p := geo.Pt(float64(50+i*24), float64(50+(i*37)%1500))
		obj, err := owner.Register(ctx(t), sightingAt(fmt.Sprintf("o%d", i), p), 10, 50, 30)
		if err != nil {
			t.Fatal(err)
		}
		objs[i] = &tracked{obj: obj, pos: p}
	}
	waitFor(t, func() bool { return ls.dep.RootVisitorCount() == numObjects }, "paths complete")

	var wg sync.WaitGroup
	var moveErrs, queryErrs, querySuccess atomic.Int64
	stop := make(chan struct{})

	// Movers: each worker owns a slice of objects and random-walks them
	// (handover-heavy: steps of up to 180 m).
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 60; i++ {
				tr := objs[(w*numObjects/workers+i)%numObjects]
				tr.mu.Lock()
				p := tr.pos
				p.X += (rng.Float64()*2 - 1) * 180
				p.Y += (rng.Float64()*2 - 1) * 180
				p = geo.R(1, 1, 1599, 1599).ClampPoint(p)
				err := tr.obj.Update(context.Background(), core.Sighting{
					OID: tr.obj.OID(), T: time.Now(), Pos: p, SensAcc: 5,
				})
				if err == nil {
					tr.pos = p
				} else {
					moveErrs.Add(1)
				}
				tr.mu.Unlock()
			}
		}(w)
	}

	// Queriers: position and range queries from every leaf while the
	// movers run. Transient not-found during a handover is tolerated;
	// anything else is not.
	leaves := ls.dep.Leaves()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			entry := leaves[w%len(leaves)]
			cl, err := client.New(ls.net, msg.NodeID(fmt.Sprintf("stress-q%d", w)), entry, client.Options{Timeout: 10 * time.Second})
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for i := 0; i < 40; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if rng.Intn(2) == 0 {
					oid := core.OID(fmt.Sprintf("o%d", rng.Intn(numObjects)))
					if _, err := cl.PosQuery(context.Background(), oid); err != nil {
						if errors.Is(err, core.ErrNotFound) {
							queryErrs.Add(1) // transient during handover
						} else {
							t.Errorf("pos query: %v", err)
						}
					} else {
						querySuccess.Add(1)
					}
				} else {
					x, y := rng.Float64()*1400, rng.Float64()*1400
					if _, err := cl.RangeQueryRect(context.Background(), geo.R(x, y, x+200, y+200), 50, 0.5); err != nil {
						t.Errorf("range query: %v", err)
					} else {
						querySuccess.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)

	if moveErrs.Load() > 0 {
		t.Errorf("%d update errors", moveErrs.Load())
	}
	if querySuccess.Load() == 0 {
		t.Fatal("no query succeeded")
	}
	// Transient misses must be rare relative to successes.
	if e, s := queryErrs.Load(), querySuccess.Load(); e*5 > s {
		t.Errorf("too many transient misses: %d vs %d successes", e, s)
	}

	// Let asynchronous path maintenance settle, then check invariants.
	eventually(func() bool { return ls.dep.RootVisitorCount() == numObjects })
	if got := ls.dep.RootVisitorCount(); got != numObjects {
		t.Errorf("root paths unstable: %d/%d", got, numObjects)
		root := ls.dep.Servers[ls.dep.Root()]
		for i := 0; i < numObjects; i++ {
			oid := core.OID(fmt.Sprintf("o%d", i))
			if _, ok := root.VisitorForTest(oid); !ok {
				dumpObject(t, ls, oid)
			}
		}
	}

	// Invariant 1: every object has exactly one agent (one sighting
	// across all leaves).
	agentCount := map[core.OID]int{}
	for _, leaf := range leaves {
		srv := ls.dep.Servers[leaf]
		for i := 0; i < numObjects; i++ {
			oid := core.OID(fmt.Sprintf("o%d", i))
			if rec, ok := srv.VisitorForTest(oid); ok && rec.ForwardRef == "" {
				agentCount[oid]++
			}
		}
	}
	for i := 0; i < numObjects; i++ {
		oid := core.OID(fmt.Sprintf("o%d", i))
		if agentCount[oid] != 1 {
			t.Errorf("object %s has %d agents", oid, agentCount[oid])
		}
	}

	// Invariant 2: every object remains queryable with its last accepted
	// position.
	final := ls.newClientAt(t, "final", geo.Pt(800, 800), client.Options{Timeout: 10 * time.Second})
	for _, tr := range objs {
		ld, err := final.PosQuery(ctx(t), tr.obj.OID())
		if err != nil {
			t.Errorf("final query %s: %v", tr.obj.OID(), err)
			dumpObject(t, ls, tr.obj.OID())
			continue
		}
		tr.mu.Lock()
		want := tr.pos
		tr.mu.Unlock()
		if ld.Pos != want {
			t.Errorf("object %s at %v, want %v", tr.obj.OID(), ld.Pos, want)
		}
	}
}
