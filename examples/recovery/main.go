// Recovery demonstrates the crash-recovery design of Section 5, upgraded
// with durable sighting state:
//
//   - the leaf's visitor records — its registrations, which it keeps in
//     the sighting store next to the sightings — live on persistent
//     storage (a write-ahead log), so they survive a server crash;
//   - the sightingDB — in the paper purely main-memory, rebuilt by asking
//     every persisted visitor for a fresh update — here also keeps one
//     durable log segment per shard (store.ShardedWAL). After a restart the
//     shards are replayed in parallel and each shard's spatial index is
//     bulk-loaded, so queries are answerable immediately, before any
//     visitor re-reports.
//
// This example wires servers by hand (instead of using the locsvc facade)
// because it needs to crash and restart an individual leaf.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/server"
	"locsvc/internal/store"
	"locsvc/internal/transport"
)

const sightingShards = 4

func main() {
	dir, err := os.MkdirTemp("", "locsvc-recovery")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	walPath := filepath.Join(dir, "r0-visitors.wal")
	swalDir := filepath.Join(dir, "r0-sightings")

	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()

	spec := hierarchy.Spec{
		RootArea: geo.R(0, 0, 1000, 1000),
		Levels:   []hierarchy.Level{{Rows: 2, Cols: 2}},
	}
	configs, err := hierarchy.Build(spec)
	if err != nil {
		log.Fatal(err)
	}
	rootArea := core.AreaFromRect(spec.RootArea)

	// Start the tree; leaf r.0 gets a registration log and a sharded,
	// WAL-backed sightingDB.
	servers := map[string]*server.Server{}
	startServer := func(cfg store.ConfigRecord, durable bool) *server.Server {
		opts := server.Options{}
		if durable {
			wal, werr := store.OpenFileWAL(walPath)
			if werr != nil {
				log.Fatal(werr)
			}
			opts.WAL = wal
			swal, werr := store.OpenShardedWAL(swalDir, sightingShards)
			if werr != nil {
				log.Fatal(werr)
			}
			opts.SightingWAL = swal
		}
		srv, serr := server.New(cfg, rootArea, net, opts)
		if serr != nil {
			log.Fatal(serr)
		}
		servers[cfg.ID] = srv
		return srv
	}
	var leafCfg store.ConfigRecord
	for _, cfg := range configs {
		if cfg.ID == "r.0" {
			leafCfg = cfg
			startServer(cfg, true)
		} else {
			startServer(cfg, false)
		}
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	// A mobile device per object answers recovery requests by re-sending
	// its current position — the paper's restore path, still available on
	// top of the durable sightingDB.
	ctx := context.Background()
	var (
		mu        sync.Mutex
		objs      = map[core.OID]*client.TrackedObject{}
		positions = map[core.OID]geo.Point{}
		reUpdates atomic.Int64
	)
	c, err := client.New(net, "device-1", "r.0", client.Options{
		OnRequestUpdate: func(oid core.OID) {
			fmt.Printf("device: server requested a fresh update for %s\n", oid)
			mu.Lock()
			obj, pos := objs[oid], positions[oid]
			mu.Unlock()
			if obj == nil {
				return
			}
			if uerr := obj.Update(context.Background(), core.Sighting{
				OID: oid, T: time.Now(), Pos: pos, SensAcc: 5,
			}); uerr != nil {
				log.Printf("device: re-update failed: %v", uerr)
				return
			}
			reUpdates.Add(1)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	register := func(oid core.OID, pos geo.Point) *client.TrackedObject {
		obj, rerr := c.Register(ctx, core.Sighting{OID: oid, T: time.Now(), Pos: pos, SensAcc: 5}, 10, 50, 2)
		if rerr != nil {
			log.Fatal(rerr)
		}
		mu.Lock()
		objs[oid] = obj
		positions[oid] = pos
		mu.Unlock()
		return obj
	}

	obj := register("badge-42", geo.Pt(100, 100))
	fmt.Printf("registered badge-42 at %v (agent %s)\n", geo.Pt(100, 100), obj.Agent())

	// A fleet of additional objects fills the sightingDB; their updates
	// flow through the batched pipeline and land in the per-shard logs.
	for i := 0; i < 8; i++ {
		oid := core.OID(fmt.Sprintf("cart-%d", i))
		fleet := register(oid, geo.Pt(50+float64(i)*40, 200))
		pos := geo.Pt(50+float64(i)*40, 210)
		if uerr := fleet.Update(ctx, core.Sighting{OID: oid, T: time.Now(), Pos: pos, SensAcc: 5}); uerr != nil {
			log.Fatal(uerr)
		}
		mu.Lock()
		positions[oid] = pos
		mu.Unlock()
	}
	fmt.Printf("before crash: %d sightings on r.0\n", servers["r.0"].SightingCount())

	// Crash the leaf: its process dies; both WALs survive on disk.
	fmt.Println("crashing leaf server r.0 ...")
	if err := servers["r.0"].Close(); err != nil {
		log.Fatal(err)
	}

	// Restart it from the same logs. The sighting shards are replayed in
	// parallel and bulk-loaded before the server attaches to the network.
	fmt.Println("restarting r.0 from its write-ahead logs ...")
	restarted := startServer(leafCfg, true)
	fmt.Printf("after restart: %d visitor record(s) and %d sighting(s) restored\n",
		restarted.VisitorCount(), restarted.SightingCount())

	// Positions are queryable immediately — no waiting for visitors to
	// re-report, the pre-crash sightingDB is simply back.
	ld, err := c.PosQuery(ctx, "badge-42")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("position query straight after recovery: badge-42 at %v ± %.0f m\n", ld.Pos, ld.Acc)
	ld, err = c.PosQuery(ctx, "cart-3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("position query straight after recovery: cart-3 at %v ± %.0f m\n", ld.Pos, ld.Acc)

	// The paper's restore path still works on top: ask persisted visitors
	// for fresh updates to re-tighten accuracy after the outage.
	n := restarted.RestoreVisitors()
	fmt.Printf("server: additionally requested fresh updates from %d visitor(s)\n", n)
	deadline := time.Now().Add(3 * time.Second)
	for int(reUpdates.Load()) < n && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("devices re-reported %d position(s)\n", reUpdates.Load())
	fmt.Println("recovery complete: sightingDB survived the crash, forwarding paths intact")
}
