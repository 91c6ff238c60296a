package server_test

import (
	"sync"
	"testing"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
	"locsvc/internal/server"
)

// notifyRecorder collects event notifications thread-safely.
type notifyRecorder struct {
	mu sync.Mutex
	ns []msg.EventNotify
}

func (r *notifyRecorder) add(n msg.EventNotify) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ns = append(r.ns, n)
}

func (r *notifyRecorder) snapshot() []msg.EventNotify {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]msg.EventNotify, len(r.ns))
	copy(out, r.ns)
	return out
}

func TestCountAboveEventSingleLeaf(t *testing.T) {
	ls := newTestLS(t, quadSpec(), server.Options{})
	sub := ls.newClientAt(t, "subscriber", geo.Pt(100, 100), client.Options{})
	owner := ls.newClientAt(t, "owner", geo.Pt(100, 100), client.Options{})

	var rec notifyRecorder
	area := core.AreaFromRect(geo.R(50, 50, 250, 250)) // inside leaf r.0
	if err := sub.SubscribeCountAbove("crowd", area, 50, 2, rec.add); err != nil {
		t.Fatal(err)
	}

	// First object: below threshold, no notification.
	if _, err := owner.Register(ctx(t), sightingAt("a", geo.Pt(100, 100)), 10, 50, 3); err != nil {
		t.Fatal(err)
	}
	// Second object: threshold reached → Fired=true.
	if _, err := owner.Register(ctx(t), sightingAt("b", geo.Pt(150, 150)), 10, 50, 3); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		ns := rec.snapshot()
		return len(ns) == 1 && ns[0].Fired && ns[0].Total == 2
	}, "threshold notification")

	// One object leaves the area → Fired=false transition.
	bObj, err := owner.Register(ctx(t), sightingAt("c", geo.Pt(160, 160)), 10, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	_ = bObj
	// Removing two objects drops the count below the threshold.
	if err := deregisterByID(t, ls, owner, "a", geo.Pt(100, 100)); err != nil {
		t.Fatal(err)
	}
	if err := deregisterByID(t, ls, owner, "b", geo.Pt(150, 150)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		ns := rec.snapshot()
		return len(ns) >= 2 && !ns[len(ns)-1].Fired
	}, "below-threshold notification")
}

// deregisterByID re-registers a handle-free deregistration: registers are
// done through owner, so we reconstruct a handle by registering again is
// not possible — instead we call the agent directly through a fresh handle.
func deregisterByID(t *testing.T, ls *testLS, owner *client.Client, id string, p geo.Point) error {
	t.Helper()
	// Re-register returns the same agent (records are overwritten), so a
	// fresh handle is a practical way to obtain one for deregistration.
	obj, err := owner.Register(ctx(t), sightingAt(id, p), 10, 50, 3)
	if err != nil {
		return err
	}
	return obj.Deregister(ctx(t))
}

func TestCountAboveEventSpanningLeaves(t *testing.T) {
	ls := newTestLS(t, quadSpec(), server.Options{})
	sub := ls.newClientAt(t, "subscriber", geo.Pt(100, 100), client.Options{})
	owner := ls.newClientAt(t, "owner", geo.Pt(100, 100), client.Options{})

	var rec notifyRecorder
	// Area straddles all four leaves around the center.
	area := core.AreaFromRect(geo.R(650, 650, 850, 850))
	if err := sub.SubscribeCountAbove("center", area, 50, 2, rec.add); err != nil {
		t.Fatal(err)
	}

	// Two objects in different leaves of the area: the coordinator must
	// aggregate across leaves.
	if _, err := owner.Register(ctx(t), sightingAt("sw", geo.Pt(700, 700)), 10, 50, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Register(ctx(t), sightingAt("ne", geo.Pt(800, 800)), 10, 50, 3); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		ns := rec.snapshot()
		return len(ns) >= 1 && ns[len(ns)-1].Fired && ns[len(ns)-1].Total == 2
	}, "cross-leaf aggregation")
}

func TestMeetingEvent(t *testing.T) {
	ls := newTestLS(t, quadSpec(), server.Options{})
	sub := ls.newClientAt(t, "subscriber", geo.Pt(100, 100), client.Options{})
	owner := ls.newClientAt(t, "owner", geo.Pt(100, 100), client.Options{})

	var rec notifyRecorder
	area := core.AreaFromRect(geo.R(0, 0, 750, 750))
	if err := sub.SubscribeMeeting("meet", area, 20, rec.add); err != nil {
		t.Fatal(err)
	}
	// The leaf's dispatcher evaluates deltas behind the commits, and a
	// meeting delta looks its partners up in the store as it is by then. A
	// count subscription over the same area rides the same queue, so its
	// local count says how far the dispatcher has got. (The threshold is
	// never reached.)
	if err := sub.SubscribeCountAbove("progress", area, 50, 100, func(msg.EventNotify) {}); err != nil {
		t.Fatal(err)
	}
	// Subscribing is a one-way send: wait until the one leaf the area
	// covers (r.0, exactly) installed both.
	leaf := ls.dep.Servers["r.0"]
	waitFor(t, func() bool { return leaf.EventSubCountForTest() == 2 }, "subscriptions installed on the covered leaf")

	if _, err := owner.Register(ctx(t), sightingAt("alice", geo.Pt(100, 100)), 10, 50, 3); err != nil {
		t.Fatal(err)
	}
	// Bob registers 200 m away: no meeting.
	bob, err := owner.Register(ctx(t), sightingAt("bob", geo.Pt(300, 100)), 10, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Both registrations evaluated while the two are still far apart —
	// not later, against Bob's next position.
	waitFor(t, func() bool {
		n, _ := leaf.EventLocalCountForTest("progress")
		return n == 2
	}, "the dispatcher to evaluate both registrations")
	if len(rec.snapshot()) != 0 {
		t.Fatal("meeting fired while objects far apart")
	}
	// Bob walks over to Alice.
	if err := bob.Update(ctx(t), sightingAt("bob", geo.Pt(110, 100))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		ns := rec.snapshot()
		if len(ns) != 1 {
			return false
		}
		n := ns[0]
		return n.Fired && len(n.Objs) == 2 && n.Objs[0] == "alice" && n.Objs[1] == "bob"
	}, "meeting notification")

	// Staying together must not re-fire.
	if err := bob.Update(ctx(t), sightingAt("bob", geo.Pt(112, 100))); err != nil {
		t.Fatal(err)
	}
	if got := len(rec.snapshot()); got != 1 {
		t.Errorf("meeting re-fired: %d notifications", got)
	}
}

func TestUnsubscribeStopsNotifications(t *testing.T) {
	ls := newTestLS(t, quadSpec(), server.Options{})
	sub := ls.newClientAt(t, "subscriber", geo.Pt(100, 100), client.Options{})
	owner := ls.newClientAt(t, "owner", geo.Pt(100, 100), client.Options{})

	var rec notifyRecorder
	area := core.AreaFromRect(geo.R(50, 50, 250, 250))
	if err := sub.SubscribeCountAbove("tmp", area, 50, 1, rec.add); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Register(ctx(t), sightingAt("a", geo.Pt(100, 100)), 10, 50, 3); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(rec.snapshot()) == 1 }, "first notification")

	if err := sub.Unsubscribe("tmp", area); err != nil {
		t.Fatal(err)
	}
	// Allow the unsubscription to propagate, then trigger more changes.
	waitFor(t, func() bool {
		leaf := ls.dep.Servers["r.0"]
		return leaf.EventSubCountForTest() == 0
	}, "subscription removed on leaf")
	if _, err := owner.Register(ctx(t), sightingAt("b", geo.Pt(120, 120)), 10, 50, 3); err != nil {
		t.Fatal(err)
	}
	if got := len(rec.snapshot()); got != 1 {
		t.Errorf("notification after unsubscribe: %d total", got)
	}
}

func TestSubscriptionValidation(t *testing.T) {
	ls := newTestLS(t, quadSpec(), server.Options{})
	sub := ls.newClientAt(t, "subscriber", geo.Pt(100, 100), client.Options{})
	if err := sub.SubscribeCountAbove("x", core.Area{}, 50, 2, func(msg.EventNotify) {}); err == nil {
		t.Error("empty area accepted")
	}
	if err := sub.SubscribeCountAbove("x", core.AreaFromRect(geo.R(0, 0, 1, 1)), 50, 0, func(msg.EventNotify) {}); err == nil {
		t.Error("zero threshold accepted")
	}
	if err := sub.SubscribeMeeting("y", core.AreaFromRect(geo.R(0, 0, 1, 1)), 0, func(msg.EventNotify) {}); err == nil {
		t.Error("zero distance accepted")
	}
}
