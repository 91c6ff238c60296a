package hierarchy_test

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/metrics"
	"locsvc/internal/msg"
	"locsvc/internal/oracle"
	"locsvc/internal/server"
	"locsvc/internal/store"
	"locsvc/internal/transport"
)

// TestChaosSoak drives the full resilience stack through a 2×2 hierarchy
// under 20% datagram loss while two of the four leaves crash and recover
// from their WALs. It asserts the layered failure story end to end:
//
//   - operations against live leaves keep succeeding via the retry budget,
//   - queries touching a dark leaf come back Partial, never as hard errors,
//   - the parent's circuit breaker toward a dark leaf opens under timeouts
//     and closes again within a few probe intervals of recovery,
//   - no in-flight call entry outlives the soak (the trackers quiesce),
//   - after full recovery every object is found at its last accepted
//     position and a whole-area range query is complete again,
//   - every answer received on the way, mid-fault ones included, is right
//     (internal/oracle): complete, or Partial and missing only objects
//     that lie behind the servers it names.
func TestChaosSoak(t *testing.T) {
	const (
		dropRate    = 0.2
		callTimeout = 200 * time.Millisecond
		queryTO     = 500 * time.Millisecond
		cooldown    = 150 * time.Millisecond
	)

	reg := metrics.NewRegistry()
	down := transport.NewNodesDown(transport.NewLoss(dropRate, 7).Plan)
	net := transport.NewInproc(transport.InprocOptions{
		FaultPlan:        down.Plan,
		SweepInterval:    10 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  cooldown,
		Metrics:          reg,
	})
	defer net.Close()

	dir := t.TempDir()
	walPath := func(id msg.NodeID) string { return filepath.Join(dir, string(id)+".wal") }
	spec := hierarchy.Spec{
		RootArea: geo.R(0, 0, 1500, 1500),
		Levels:   []hierarchy.Level{{Rows: 2, Cols: 2}},
	}
	base := server.Options{
		CallTimeout:  callTimeout,
		QueryTimeout: queryTO,
		// The default path budget (4 tries) is sized for realistic loss:
		// at 20 % each way three failed tries open the breaker, the
		// fourth is refused unsent, and now and then a registration's
		// CreatePath is given up for good (one object in 18 runs of this
		// soak). The soak is not about that budget; like its clients, its
		// servers get one that outlasts the loss it injects.
		PathRetry: transport.RetryPolicy{
			MaxAttempts: 10,
			BaseBackoff: 20 * time.Millisecond,
			MaxBackoff:  150 * time.Millisecond,
		},
	}
	dep, err := hierarchy.DeployWith(net, spec, base, func(cfg store.ConfigRecord, o server.Options) (server.Options, error) {
		if cfg.IsLeaf() {
			wal, werr := store.OpenFileWAL(walPath(msg.NodeID(cfg.ID)))
			if werr != nil {
				return o, werr
			}
			o.WAL = wal
		}
		return o, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	rootArea := core.AreaFromRect(spec.RootArea)
	truth := oracle.New(dep.Configs)
	configFor := func(id msg.NodeID) store.ConfigRecord {
		for _, cfg := range dep.Configs {
			if msg.NodeID(cfg.ID) == id {
				return cfg
			}
		}
		t.Fatalf("no config for %s", id)
		return store.ConfigRecord{}
	}

	// One client and one object per quarter; each client's entry server
	// is the leaf that owns its quarter. o0/o2 live on the leaves that
	// will crash; o1/o3 are the "live" population whose operations must
	// never fail.
	retry := transport.RetryPolicy{
		MaxAttempts:   10,
		BaseBackoff:   20 * time.Millisecond,
		MaxBackoff:    150 * time.Millisecond,
		PerTryTimeout: 800 * time.Millisecond,
	}
	positions := map[string]geo.Point{
		"o0": geo.Pt(100, 100),
		"o1": geo.Pt(1200, 100),
		"o2": geo.Pt(100, 1200),
		"o3": geo.Pt(1200, 1200),
	}
	clients := map[string]*client.Client{}
	objects := map[string]*client.TrackedObject{}
	for oid, p := range positions {
		entry, ok := dep.LeafFor(p)
		if !ok {
			t.Fatalf("no leaf for %v", p)
		}
		c, cerr := client.New(net, msg.NodeID("owner-"+oid), entry, client.Options{
			Timeout: 15 * time.Second,
			Retry:   retry,
		})
		if cerr != nil {
			t.Fatal(cerr)
		}
		defer c.Close()
		obj, rerr := c.Register(soakCtx(t), sightingAt(oid, p), 10, 50, 3)
		if rerr != nil {
			t.Fatalf("register %s: %v", oid, rerr)
		}
		clients[oid] = c
		objects[oid] = obj
		truth.Track(obj)
	}
	// A registration is acknowledged before its CreatePath has climbed
	// (Algorithm 6-1), and under the loss that is on already the climb may
	// need its retries. Until the root has heard of an object, "not tracked"
	// is the honest answer to a query for it — so the first leaf goes dark
	// only once every forwarding path stands.
	pathsBy := time.Now().Add(10 * time.Second)
	for dep.RootVisitorCount() != len(positions) {
		if time.Now().After(pathsBy) {
			t.Fatalf("forwarding paths incomplete: %d of %d objects at the root", dep.RootVisitorCount(), len(positions))
		}
		// Polls: the chaos soak runs on the wall clock (ROADMAP direction 4).
		time.Sleep(5 * time.Millisecond)
	}

	liveUpdate := func(oid string, p geo.Point) {
		t.Helper()
		truth.Sent(core.OID(oid), core.LocationDescriptor{Pos: p, Acc: objects[oid].OfferedAcc()})
		if err := objects[oid].Update(soakCtx(t), sightingAt(oid, p)); err != nil {
			t.Fatalf("live update %s: %v", oid, err)
		}
		truth.Track(objects[oid])
		positions[oid] = p
	}
	wholeArea := core.AreaFromRect(geo.R(0, 0, 1500, 1500))
	// wholeRange queries the whole area through o's client and returns
	// the query's error; a wrong answer fails the soak.
	wholeRange := func(round int, o string) (client.RangeResult, error) {
		t.Helper()
		res, err := clients[o].RangeQueryFull(soakCtx(t), wholeArea, 100, 0.5)
		if err != nil {
			return res, err
		}
		if cerr := truth.CheckRange(wholeArea, 100, 0.5, res); cerr != nil {
			t.Fatalf("round %d: %v", round, cerr)
		}
		return res, nil
	}

	rounds := 2
	if testing.Short() {
		rounds = 1
	}
	crashLeaves := []msg.NodeID{"r.0", "r.2"}
	darkObj := map[msg.NodeID]string{"r.0": "o0", "r.2": "o2"}

	for round := 0; round < rounds; round++ {
		for _, leaf := range crashLeaves {
			oid := darkObj[leaf]
			step := geo.Pt(float64(round+1)*5, 0)

			// Pause the leaf: deliveries in both directions are
			// dropped while its id stays attached — calls toward
			// it time out and feed the parent's breaker.
			down.SetNodeDown(leaf, true)

			// Live-leaf operations must ride the retry budget
			// through the loss and the dark quarter.
			liveUpdate("o1", positions["o1"].Add(step))
			liveUpdate("o3", positions["o3"].Add(step))

			// A query for the dark object degrades to unavailable,
			// never to not-found or a hard transport error.
			ld, qerr := clients["o1"].PosQuery(soakCtx(t), core.OID(oid))
			if cerr := truth.CheckPos(core.OID(oid), ld, qerr); cerr != nil || !errors.Is(qerr, core.ErrUnavailable) {
				t.Fatalf("round %d: dark posquery for %s err = %v (%v), want ErrUnavailable", round, oid, qerr, cerr)
			}

			// Whole-area range queries must come back Partial while
			// the leaf is dark, and the repeated fan-out timeouts
			// open the parent's breaker toward it.
			sawPartial := false
			deadline := time.Now().Add(10 * time.Second)
			for net.PeerState(dep.Root(), leaf) != transport.PeerOpen || !sawPartial {
				if time.Now().After(deadline) {
					t.Fatalf("round %d: breaker %s->%s never opened (partial seen: %v)",
						round, dep.Root(), leaf, sawPartial)
				}
				res, qerr := wholeRange(round, "o3")
				if qerr != nil {
					t.Fatalf("round %d: degraded range query: %v", round, qerr)
				}
				if res.Partial {
					sawPartial = true
				}
			}

			// With the breaker open, fan-out legs toward the dark
			// leaf are refused without burning a timeout. A lone
			// query every ~500ms always arrives past the cooldown
			// and is admitted as the probe, so fire bursts of
			// concurrent queries: the ones that land while a probe
			// is in flight (or inside an open window) are refused
			// and counted.
			brkBy := time.Now().Add(10 * time.Second)
			for reg.Counter("wire_breaker_open").Value() == 0 {
				if time.Now().After(brkBy) {
					t.Fatalf("round %d: no fail-fast rejection while %s dark", round, leaf)
				}
				var wg sync.WaitGroup
				qErrs := make([]error, 3)
				for i := range qErrs {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						res, qerr := clients["o3"].RangeQueryFull(soakCtx(t), wholeArea, 100, 0.5)
						if qerr == nil {
							qerr = truth.CheckRange(wholeArea, 100, 0.5, res)
						}
						qErrs[i] = qerr
					}(i)
				}
				wg.Wait()
				for _, qerr := range qErrs {
					if qerr != nil {
						t.Fatalf("round %d: open-breaker range query: %v", round, qerr)
					}
				}
			}

			// Crash it for real: close the paused server (its WAL
			// closes with it) and restart from the same log. The
			// visitorDB survives; the sightingDB starts empty.
			down.SetNodeDown(leaf, false)
			if err := dep.Servers[leaf].Close(); err != nil {
				t.Fatal(err)
			}
			wal, werr := store.OpenFileWAL(walPath(leaf))
			if werr != nil {
				t.Fatal(werr)
			}
			opts := base
			opts.WAL = wal
			srv, serr := server.New(configFor(leaf), rootArea, net, opts)
			if serr != nil {
				t.Fatal(serr)
			}
			dep.Servers[leaf] = srv
			// Without a sighting log the restarted leaf knows the
			// object is registered but not where it is.
			truth.Lost(core.OID(oid))

			// The breaker must close again shortly after recovery:
			// the cooldown elapses, a probe call goes through, and
			// the parent resumes normal fan-out. Queries provide
			// the probe traffic. Loss can eat a probe (reopening
			// the breaker for another cooldown), so allow a few
			// probe intervals.
			closeBy := time.Now().Add(10 * time.Second)
			for net.PeerState(dep.Root(), leaf) != transport.PeerClosed {
				if time.Now().After(closeBy) {
					t.Fatalf("round %d: breaker %s->%s still %v after recovery",
						round, dep.Root(), leaf, net.PeerState(dep.Root(), leaf))
				}
				if _, qerr := wholeRange(round, "o3"); qerr != nil {
					t.Fatalf("round %d: post-recovery range query: %v", round, qerr)
				}
				// Paces the rounds: the chaos soak runs on the wall clock (ROADMAP direction 4).
				time.Sleep(cooldown / 3)
			}

			// The crashed leaf's object repopulates the rebuilt
			// sightingDB with its next update (the WAL-restored
			// visitor record accepts it), and the hierarchy is
			// whole again: a complete answer, which the checker
			// holds to all four objects, must reappear.
			liveUpdate(oid, positions[oid].Add(step))
			wholeBy := time.Now().Add(10 * time.Second)
			for {
				res, qerr := wholeRange(round, "o1")
				if qerr == nil && !res.Partial {
					break
				}
				if time.Now().After(wholeBy) {
					t.Fatalf("round %d: hierarchy never healed after %s restart (err=%v)", round, leaf, qerr)
				}
			}
		}
	}

	// No in-flight entry may outlive the soak: every server's call
	// tracker must drain.
	quiesceBy := time.Now().Add(5 * time.Second)
	for id, srv := range dep.Servers {
		for srv.PendingCalls() != 0 {
			if time.Now().After(quiesceBy) {
				t.Fatalf("server %s stuck with %d in-flight calls", id, srv.PendingCalls())
			}
			// Polls: the chaos soak runs on the wall clock (ROADMAP direction 4).
			time.Sleep(10 * time.Millisecond)
		}
	}

	// After full recovery every object is found at its last accepted
	// position. The 20% loss is still live, so one attempt can
	// legitimately degrade (a dropped internal fan-out datagram reads as
	// a dark subtree); the invariant is eventual success, bounded by a
	// deadline.
	for oid := range positions {
		oracleBy := time.Now().Add(10 * time.Second)
		for {
			ld, qerr := clients["o1"].PosQuery(soakCtx(t), core.OID(oid))
			if cerr := truth.CheckPos(core.OID(oid), ld, qerr); cerr != nil {
				t.Errorf("final %v", cerr)
			}
			if qerr == nil {
				break
			}
			if !errors.Is(qerr, core.ErrUnavailable) {
				for id, srv := range dep.Servers {
					t.Logf("server %s: visitors=%d sightings=%d", id, srv.VisitorCount(), srv.SightingCount())
				}
				t.Fatalf("final posquery %s: %v", oid, qerr)
			}
			if time.Now().After(oracleBy) {
				t.Fatalf("final posquery %s still unavailable after recovery", oid)
			}
		}
	}

	// The soak must actually have exercised the machinery it claims to:
	// retries fired under loss, fail-fast rejections happened while
	// breakers were open, and coordinators produced degraded answers.
	for _, counter := range []string{"wire_retries", "wire_breaker_open"} {
		if reg.Counter(counter).Value() == 0 {
			t.Errorf("%s = 0, soak never exercised it", counter)
		}
	}
	degraded := int64(0)
	for _, srv := range dep.Servers {
		degraded += srv.Metrics().Counter("wire_degraded_queries").Value()
	}
	if degraded == 0 {
		t.Error("wire_degraded_queries = 0 across all servers")
	}
	t.Logf("answers checked: %+v", truth.Checked())
}

func soakCtx(t *testing.T) context.Context {
	t.Helper()
	c, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	t.Cleanup(cancel)
	return c
}

func sightingAt(id string, p geo.Point) core.Sighting {
	return core.Sighting{OID: core.OID(id), T: time.Now(), Pos: p, SensAcc: 5}
}
