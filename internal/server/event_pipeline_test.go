package server_test

import (
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
	"locsvc/internal/transport"
)

// eventScenarioSub is one count subscription of the randomized scenario.
type eventScenarioSub struct {
	id        string
	area      core.Area
	reqAcc    float64
	threshold int
}

// eventScenarioMeet is one meeting subscription of the randomized scenario.
type eventScenarioMeet struct {
	id       string
	area     core.Area
	distance float64
}

// countMember replicates a count subscription's membership rule for an
// object at p with the given offered accuracy: position inside the
// ReqAcc-enlarged bounds and majority area overlap of its location
// descriptor.
func countMember(area core.Area, reqAcc, offeredAcc float64, p geo.Point) bool {
	return area.Bounds().Enlarge(reqAcc).ContainsClosed(p) &&
		area.RangeQualifies(core.LocationDescriptor{Pos: p, Acc: offeredAcc}, reqAcc, 0.5)
}

// TestEventPipelineOracleParity drives a randomized scenario —
// registrations, moves (including cross-leaf handovers), deregistrations,
// re-registrations, and mid-stream subscribe/unsubscribe — through the
// indexed (incremental-delta) event pipeline and checks that it converges
// to the ground-truth oracle computed from the final object positions:
// per-subscription aggregate counts at the coordinator, and per-leaf
// currently-meeting pair sets.
func TestEventPipelineOracleParity(t *testing.T) {
	t.Run("indexed", runEventScenario)
}

func runEventScenario(t *testing.T) {
	const (
		numObjects = 24
		steps      = 120
		offeredAcc = 10 // achievable 10, desired 10 → offered 10
	)
	ls := newTestLS(t, quadSpec(), server.Options{
		EventResyncInterval: 200 * time.Millisecond,
	})
	rng := rand.New(rand.NewSource(42))
	subscriber := ls.newClientAt(t, "subscriber", geo.Pt(100, 100), client.Options{})
	owner := ls.newClientAt(t, "owner", geo.Pt(100, 100), client.Options{})

	randPos := func() geo.Point {
		return geo.Pt(10+rng.Float64()*1480, 10+rng.Float64()*1480)
	}
	randArea := func(maxSide float64) core.Area {
		w := 50 + rng.Float64()*maxSide
		h := 50 + rng.Float64()*maxSide
		x := rng.Float64() * (1500 - w)
		y := rng.Float64() * (1500 - h)
		return core.AreaFromRect(geo.R(x, y, x+w, y+h))
	}

	// Fixed count subscriptions, several sized to straddle leaves.
	var counts []eventScenarioSub
	for i := 0; i < 8; i++ {
		cs := eventScenarioSub{
			id:        fmt.Sprintf("cnt-%d", i),
			area:      randArea(500),
			reqAcc:    25,
			threshold: 1 + rng.Intn(6),
		}
		if err := subscriber.SubscribeCountAbove(cs.id, cs.area, cs.reqAcc, cs.threshold, func(msg.EventNotify) {}); err != nil {
			t.Fatal(err)
		}
		counts = append(counts, cs)
	}
	var meets []eventScenarioMeet
	for i := 0; i < 3; i++ {
		ms := eventScenarioMeet{
			id:       fmt.Sprintf("meet-%d", i),
			area:     randArea(600),
			distance: 25 + rng.Float64()*50,
		}
		if err := subscriber.SubscribeMeeting(ms.id, ms.area, ms.distance, func(msg.EventNotify) {}); err != nil {
			t.Fatal(err)
		}
		meets = append(meets, ms)
	}

	// The object population: alive objects have a handle and a position.
	handles := make(map[core.OID]*client.TrackedObject)
	pos := make(map[core.OID]geo.Point)
	oids := make([]core.OID, numObjects)
	for i := range oids {
		oids[i] = core.OID(fmt.Sprintf("obj-%d", i))
		p := randPos()
		obj, err := owner.Register(ctx(t), sightingAt(string(oids[i]), p), offeredAcc, 50, 3)
		if err != nil {
			t.Fatal(err)
		}
		handles[oids[i]] = obj
		pos[oids[i]] = p
	}

	churn := 0
	churnActive := ""
	var churnSub eventScenarioSub
	for step := 0; step < steps; step++ {
		oid := oids[rng.Intn(numObjects)]
		switch op := rng.Intn(10); {
		case op < 7: // move (possibly across a leaf boundary → handover)
			if handles[oid] == nil {
				continue
			}
			p := randPos()
			if err := handles[oid].Update(ctx(t), sightingAt(string(oid), p)); err != nil {
				t.Fatalf("step %d: update %s: %v", step, oid, err)
			}
			pos[oid] = p
		case op < 8: // deregister
			if handles[oid] == nil {
				continue
			}
			if err := handles[oid].Deregister(ctx(t)); err != nil {
				t.Fatalf("step %d: deregister %s: %v", step, oid, err)
			}
			handles[oid] = nil
			delete(pos, oid)
		case op < 9: // re-register a deregistered object
			if handles[oid] != nil {
				continue
			}
			p := randPos()
			obj, err := owner.Register(ctx(t), sightingAt(string(oid), p), offeredAcc, 50, 3)
			if err != nil {
				t.Fatalf("step %d: register %s: %v", step, oid, err)
			}
			handles[oid] = obj
			pos[oid] = p
		default: // mid-stream subscription churn
			if churnActive != "" {
				if err := subscriber.Unsubscribe(churnActive, churnSub.area); err != nil {
					t.Fatal(err)
				}
				churnActive = ""
			} else {
				churn++
				churnSub = eventScenarioSub{
					id:        fmt.Sprintf("churn-%d", churn),
					area:      randArea(400),
					reqAcc:    25,
					threshold: 1 + rng.Intn(4),
				}
				if err := subscriber.SubscribeCountAbove(churnSub.id, churnSub.area, churnSub.reqAcc, churnSub.threshold, func(msg.EventNotify) {}); err != nil {
					t.Fatal(err)
				}
				churnActive = churnSub.id
			}
		}
	}
	activeCounts := counts
	if churnActive != "" {
		activeCounts = append(activeCounts, churnSub)
	}

	// Ground truth from the final positions.
	expected := make(map[string]int)
	for _, cs := range activeCounts {
		n := 0
		for _, p := range pos {
			if countMember(cs.area, cs.reqAcc, offeredAcc, p) {
				n++
			}
		}
		expected[cs.id] = n
	}
	// Meetings are leaf-local: both objects inside the distance-enlarged
	// bounds, on the same leaf, within the meeting distance — and the
	// subscription must actually be installed on that leaf (routing
	// intersects the raw area bounds with the leaf's service area).
	leafSA := make(map[msg.NodeID]geo.Rect)
	for _, cfg := range ls.dep.Configs {
		if cfg.IsLeaf() {
			leafSA[msg.NodeID(cfg.ID)] = cfg.SA.Bounds()
		}
	}
	expectedPairs := make(map[string]map[[2]core.OID]bool)
	for _, ms := range meets {
		b := ms.area.Bounds().Enlarge(ms.distance)
		set := make(map[[2]core.OID]bool)
		alive := make([]core.OID, 0, len(pos))
		for oid := range pos {
			alive = append(alive, oid)
		}
		for i := 0; i < len(alive); i++ {
			for j := i + 1; j < len(alive); j++ {
				a, c := alive[i], alive[j]
				pa, pc := pos[a], pos[c]
				la, _ := ls.dep.LeafFor(pa)
				lc, _ := ls.dep.LeafFor(pc)
				if la != lc || !leafSA[la].Intersects(ms.area.Bounds()) {
					continue
				}
				if !b.ContainsClosed(pa) || !b.ContainsClosed(pc) || pa.Dist(pc) > ms.distance {
					continue
				}
				if a > c {
					a, c = c, a
				}
				set[[2]core.OID{a, c}] = true
			}
		}
		expectedPairs[ms.id] = set
	}

	// The coordinator for every subscription is the subscriber's entry
	// leaf, r.0.
	coord := ls.dep.Servers["r.0"]
	leaves := []string{"r.0", "r.1", "r.2", "r.3"}
	for _, cs := range activeCounts {
		cs := cs
		settled := func() bool {
			total, fired, ok := coord.EventCoordTotalForTest(cs.id)
			return ok && total == expected[cs.id] && fired == (total >= cs.threshold)
		}
		if !eventually(settled) {
			total, fired, ok := coord.EventCoordTotalForTest(cs.id)
			var perLeaf []string
			for _, id := range leaves {
				srv := ls.dep.Servers[msg.NodeID(id)]
				if n, lok := srv.EventLocalCountForTest(cs.id); lok {
					perLeaf = append(perLeaf, fmt.Sprintf("%s=%d", id, n))
				}
			}
			t.Fatalf("%s (area %v, threshold %d): coordinator total=%d fired=%v ok=%v, want %d; per-leaf %v",
				cs.id, cs.area.Bounds(), cs.threshold, total, fired, ok, expected[cs.id], perLeaf)
		}
	}
	for _, ms := range meets {
		ms := ms
		waitFor(t, func() bool {
			got := make(map[[2]core.OID]bool)
			for _, id := range leaves {
				srv := ls.dep.Servers[msg.NodeID(id)]
				for _, p := range srv.EventMeetingPairsForTest(ms.id) {
					got[p] = true
				}
			}
			if len(got) != len(expectedPairs[ms.id]) {
				return false
			}
			for p := range expectedPairs[ms.id] {
				if !got[p] {
					return false
				}
			}
			return true
		}, fmt.Sprintf("%s: meeting pair set (%d pairs)", ms.id, len(expectedPairs[ms.id])))
	}
}

// TestEventExpiryParity checks that soft-state expiry feeds the indexed
// event engine: a fired count predicate transitions back off when its
// objects expire, without any explicit deregistration.
func TestEventExpiryParity(t *testing.T) {
	t.Run("indexed", runEventExpiry)
}

func runEventExpiry(t *testing.T) {
	const ttl = 150 * time.Millisecond
	ls, clk := newManualLS(t, quadSpec(), server.Options{
		SightingTTL:         ttl,
		JanitorInterval:     30 * time.Millisecond,
		EventResyncInterval: 200 * time.Millisecond,
	}, transport.InprocOptions{})
	sub := ls.newClientAt(t, "subscriber", geo.Pt(100, 100), client.Options{})
	owner := ls.newClientAt(t, "owner", geo.Pt(100, 100), client.Options{})

	var rec notifyRecorder
	area := core.AreaFromRect(geo.R(50, 50, 250, 250))
	if err := sub.SubscribeCountAbove("soft", area, 25, 2, rec.add); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Register(ctx(t), sightingAt("a", geo.Pt(100, 100)), 10, 50, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Register(ctx(t), sightingAt("b", geo.Pt(150, 150)), 10, 50, 3); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		ns := rec.snapshot()
		return len(ns) >= 1 && ns[len(ns)-1].Fired && ns[len(ns)-1].Total == 2
	}, "threshold notification")

	// No more updates: both records expire on the janitor tick past their
	// TTL, and the predicate must transition off.
	clk.Advance(ttl + 30*time.Millisecond)
	waitFor(t, func() bool {
		ns := rec.snapshot()
		return len(ns) >= 2 && !ns[len(ns)-1].Fired
	}, "expiry transition")
	coord := ls.dep.Servers["r.0"]
	waitFor(t, func() bool {
		total, _, ok := coord.EventCoordTotalForTest("soft")
		return ok && total == 0
	}, "aggregate drained to zero")
}

// TestFirstSubscriptionDuringUpdates covers a leaf's step from no
// subscription — when its commits queue no deltas at all — to one: a count
// subscription is installed while a writer keeps moving objects in and out
// of its area. The periodic resync is out of reach, so only the install
// evaluation and the deltas after it can produce the right count: a commit
// that fell between the two, or a queued delta applied after an overflow
// resync had already scanned past it, would leave the count wrong.
func TestFirstSubscriptionDuringUpdates(t *testing.T) {
	const (
		numObjects = 16
		offeredAcc = 10 // achievable 10, desired 10 → offered 10
		reqAcc     = 25
	)
	ls := newTestLS(t, quadSpec(), server.Options{EventResyncInterval: time.Hour})
	subscriber := ls.newClientAt(t, "subscriber", geo.Pt(100, 100), client.Options{})
	owner := ls.newClientAt(t, "owner", geo.Pt(100, 100), client.Options{})
	leafID, _ := ls.dep.LeafFor(geo.Pt(100, 100))
	leaf := ls.dep.Servers[leafID]
	if n := leaf.EventSubCountForTest(); n != 0 {
		t.Fatalf("leaf starts with %d subscriptions", n)
	}

	// The area and every position stay on the one leaf, so each move is an
	// in-area update through the pipeline, half of them across the area's
	// border.
	area := core.AreaFromRect(geo.R(200, 200, 400, 400))
	rng := rand.New(rand.NewSource(7))
	randPos := func() geo.Point {
		if rng.Intn(2) == 0 {
			return geo.Pt(210+rng.Float64()*180, 210+rng.Float64()*180)
		}
		return geo.Pt(10+rng.Float64()*160, 10+rng.Float64()*700)
	}
	handles := make([]*client.TrackedObject, numObjects)
	pos := make([]geo.Point, numObjects)
	for i := range handles {
		pos[i] = randPos()
		obj, err := owner.Register(ctx(t), sightingAt(fmt.Sprintf("obj-%d", i), pos[i]), offeredAcc, 50, 3)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = obj
	}

	var moves atomic.Int64
	wctx := ctx(t)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			i := rng.Intn(numObjects)
			p := randPos()
			if err := handles[i].Update(wctx, sightingAt(fmt.Sprintf("obj-%d", i), p)); err != nil {
				done <- err
				return
			}
			pos[i] = p
			moves.Add(1)
		}
	}()
	waitMoves := func(n int64) {
		waitFor(t, func() bool { return moves.Load() >= n }, fmt.Sprintf("%d moves", n))
	}
	waitMoves(200)
	if err := subscriber.SubscribeCountAbove("first", area, reqAcc, numObjects+1, func(msg.EventNotify) {}); err != nil {
		t.Fatal(err)
	}
	waitMoves(moves.Load() + 200)
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	want := 0
	for _, p := range pos {
		if countMember(area, reqAcc, offeredAcc, p) {
			want++
		}
	}
	// The subscriber's entry leaf is also the subscription's coordinator.
	waitFor(t, func() bool {
		total, _, ok := leaf.EventCoordTotalForTest("first")
		return ok && total == want
	}, fmt.Sprintf("coordinator total %d", want))
}

// TestEventSlowSubscriberBackpressure pins the backpressure contract: a
// subscriber whose node drops every delivery must not slow the update
// path. Notifications pile up in that destination's bounded notifier
// queue (transition notifies coalesce latest-wins; meeting notifies drop
// oldest past the bound) while updates keep completing at full speed.
func TestEventSlowSubscriberBackpressure(t *testing.T) {
	dead := msg.NodeID("subscriber")
	net := transport.NewInproc(transport.InprocOptions{
		FaultPlan: func(from, to msg.NodeID, env msg.Envelope) transport.Fault {
			if to == dead && from != dead {
				return transport.Fault{Drop: true}
			}
			return transport.Fault{}
		},
	})
	t.Cleanup(func() { net.Close() })
	dep := deployQuad(t, net, server.Options{
		// A small per-message retry budget and a tiny FIFO bound so the
		// dead subscriber exercises coalescing and drop-oldest quickly.
		PathRetry: transport.RetryPolicy{
			MaxAttempts: 2, BaseBackoff: time.Millisecond,
			MaxBackoff: 2 * time.Millisecond, PerTryTimeout: 10 * time.Millisecond,
		},
		EventNotifyQueueDepth: 4,
	})

	subscriber, err := client.New(net, dead, "r.0", client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { subscriber.Close() })
	owner, err := client.New(net, "owner", "r.0", client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { owner.Close() })

	// A threshold-1 count subscription plus a meeting pair that forms and
	// breaks every round: every round produces transition and meeting
	// traffic toward the dead subscriber.
	area := core.AreaFromRect(geo.R(50, 50, 400, 400))
	if err := subscriber.SubscribeCountAbove("hot", area, 10, 1, func(msg.EventNotify) {}); err != nil {
		t.Fatal(err)
	}
	if err := subscriber.SubscribeMeeting("pair", area, 20, func(msg.EventNotify) {}); err != nil {
		t.Fatal(err)
	}
	anchor, err := owner.Register(ctx(t), sightingAt("anchor", geo.Pt(100, 100)), 10, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	_ = anchor
	rover, err := owner.Register(ctx(t), sightingAt("rover", geo.Pt(300, 300)), 10, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	leaf := dep.Servers["r.0"]
	waitFor(t, func() bool { return leaf.EventSubCountForTest() == 2 }, "subscriptions installed")

	const rounds = 150
	start := time.Now()
	for i := 0; i < rounds; i++ {
		// In one round the rover meets the anchor, then leaves the area
		// entirely (count 2 → 1, pair forms then breaks).
		if err := rover.Update(ctx(t), sightingAt("rover", geo.Pt(105, 100))); err != nil {
			t.Fatal(err)
		}
		if err := rover.Update(ctx(t), sightingAt("rover", geo.Pt(600, 600))); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	// 300 local updates take milliseconds when the update path is clean;
	// if notification delivery back-pressured it, every update would eat
	// part of the retry budget and the loop would take tens of seconds.
	if elapsed > 10*time.Second {
		t.Fatalf("updates stalled behind dead subscriber: %d rounds took %v", rounds, elapsed)
	}

	reg := leaf.Metrics()
	waitFor(t, func() bool {
		return reg.Counter("event_notify_failed").Value() > 0 ||
			reg.Counter("event_notify_dropped").Value() > 0 ||
			reg.Counter("event_notify_coalesced").Value() > 0
	}, "notifier observed the dead subscriber")
}

// TestEventFanoutSoak hammers the event pipeline from many goroutines —
// updates, handovers, subscription churn, diagnostics — to give the race
// detector surface. Correctness is covered by the ground-truth tests; this
// one asserts only clean shutdown and a live hierarchy at the end.
func TestEventFanoutSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	ls := newTestLS(t, quadSpec(), server.Options{
		EventQueueDepth:     32, // small queue → overflow resyncs under load
		EventResyncInterval: 100 * time.Millisecond,
	})
	subscriber := ls.newClientAt(t, "subscriber", geo.Pt(100, 100), client.Options{})

	const workers = 4
	const perWorker = 12
	const rounds = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			owner := ls.newClientAt(t, fmt.Sprintf("owner-%d", w), geo.Pt(100, 100), client.Options{})
			objs := make([]*client.TrackedObject, perWorker)
			for i := range objs {
				obj, err := owner.Register(ctx(t), sightingAt(
					fmt.Sprintf("s-%d-%d", w, i),
					geo.Pt(10+rng.Float64()*1480, 10+rng.Float64()*1480)), 10, 50, 3)
				if err != nil {
					t.Error(err)
					return
				}
				objs[i] = obj
			}
			for r := 0; r < rounds; r++ {
				i := rng.Intn(perWorker)
				if err := objs[i].Update(ctx(t), sightingAt(
					fmt.Sprintf("s-%d-%d", w, i),
					geo.Pt(10+rng.Float64()*1480, 10+rng.Float64()*1480))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for r := 0; r < rounds; r++ {
			id := fmt.Sprintf("soak-%d", r%8)
			w := 100 + rng.Float64()*400
			x, y := rng.Float64()*(1500-w), rng.Float64()*(1500-w)
			area := core.AreaFromRect(geo.R(x, y, x+w, y+w))
			if r%2 == 0 {
				if err := subscriber.SubscribeCountAbove(id, area, 25, 2, func(msg.EventNotify) {}); err != nil {
					t.Error(err)
					return
				}
			} else {
				_ = subscriber.Unsubscribe(id, area)
			}
			// Paces the churn against the writers: a soak in real time, not a timer test.
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
}

// deployQuad deploys the standard 2x2 testbed on a caller-provided
// network (for tests that need transport fault injection).
func deployQuad(t *testing.T, net transport.Network, opts server.Options) *hierarchy.Deployment {
	t.Helper()
	dep, err := hierarchy.Deploy(net, quadSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	return dep
}
