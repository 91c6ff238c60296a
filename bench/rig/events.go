package rig

import (
	"fmt"
	"sync"
	"time"

	"locsvc/bench/gen"
	"locsvc/internal/core"
	"locsvc/internal/msg"
)

// tripwire is one count-above-1 subscription and the flips the generator
// has caused but the subscriber has not yet been told about.
type tripwire struct {
	mu       sync.Mutex
	expected []flip
}

// flip is one predicate transition caused by a walker update.
type flip struct {
	due   time.Time
	fired bool
}

// notifyLog collects what the EventHandlers observe during one phase.
type notifyLog struct {
	mu         sync.Mutex
	lat        []int64 // due time of the flipping update → handler invoked
	unexpected int     // notification with no flip outstanding
	wrongFired int     // notification whose Fired contradicts the flip
}

func tripID(k int) string { return fmt.Sprintf("trip-%04d", k) }

// installTripwires subscribes the connections (alternating) to every
// tripwire cell and waits until the leaves report all of them installed.
func (w *World) installTripwires() error {
	cells := w.cfg.Tripwires
	if len(cells) == 0 {
		return nil
	}
	w.trips = make([]tripwire, len(cells))
	w.tripIndex = make(map[string]int, len(cells))
	for k, cell := range cells {
		id := tripID(k)
		w.tripIndex[id] = k
		cn := w.conns[k%gen.Streams]
		li, _ := w.cfg.LeafOf(cell.Center())
		cn.c.SetEntry(w.leaves[li])
		if err := cn.c.SubscribeCountAbove(id, core.AreaFromRect(cell), gen.TripReqAcc, 1, w.onNotify); err != nil {
			return fmt.Errorf("rig: subscribing %s: %w", id, err)
		}
	}
	err := waitFor(30*time.Second, func() bool {
		ds, derr := w.diags()
		if derr != nil {
			return false
		}
		subs := 0
		for _, d := range ds {
			subs += d.EventSubs
		}
		return subs >= len(cells)
	})
	if err != nil {
		return fmt.Errorf("rig: tripwire subscriptions not installed in time")
	}
	// Every leaf now evaluates its subscriptions once and reports the
	// counts to the coordinators, a few hundred reports per second and
	// destination. Wait until that traffic has drained, so it is part of
	// the set-up and not of the first measured ops.
	return w.waitWireIdle(30 * time.Second)
}

// waitWireIdle waits until the UDP network has sent nothing for 100 ms. It
// returns at once on Inproc, which keeps no wire counters.
func (w *World) waitWireIdle(timeout time.Duration) error {
	if w.udpMet == nil {
		return nil
	}
	sent := w.udpMet.Counter("wire_envelopes_out")
	last, quiet := sent.Value(), 0
	err := waitFor(timeout, func() bool {
		time.Sleep(20 * time.Millisecond)
		if now := sent.Value(); now != last {
			last, quiet = now, 0
		} else {
			quiet++
		}
		return quiet >= 5
	})
	if err != nil {
		return fmt.Errorf("rig: network still busy %v after the tripwires were installed", timeout)
	}
	return nil
}

// expectFlip notes, before the walker update is sent, that tripwire k must
// report the given state.
func (w *World) expectFlip(k int, fired bool, due time.Time) {
	t := &w.trips[k]
	t.mu.Lock()
	t.expected = append(t.expected, flip{due: due, fired: fired})
	t.mu.Unlock()
}

// onNotify is every subscription's EventHandler.
func (w *World) onNotify(n msg.EventNotify) {
	now := time.Now()
	k, ok := w.tripIndex[n.SubID]
	if !ok {
		return
	}
	t := &w.trips[k]
	t.mu.Lock()
	var f flip
	has := len(t.expected) > 0
	if has {
		f = t.expected[0]
		t.expected = t.expected[1:]
	}
	t.mu.Unlock()
	w.notes.mu.Lock()
	switch {
	case !has:
		w.notes.unexpected++
	case f.fired != n.Fired:
		w.notes.wrongFired++
	default:
		w.notes.lat = append(w.notes.lat, int64(now.Sub(f.due)))
	}
	w.notes.mu.Unlock()
}

// settleNotifications waits for outstanding flips to be notified, then
// returns the phase's notification log and the number still missing; both
// are reset for the next phase.
func (w *World) settleNotifications(timeout time.Duration) (lat []int64, unexpected, wrongFired, missing int) {
	if len(w.trips) == 0 {
		return nil, 0, 0, 0
	}
	outstanding := func() int {
		n := 0
		for k := range w.trips {
			t := &w.trips[k]
			t.mu.Lock()
			n += len(t.expected)
			t.mu.Unlock()
		}
		return n
	}
	waitFor(timeout, func() bool { return outstanding() == 0 })
	for k := range w.trips {
		t := &w.trips[k]
		t.mu.Lock()
		missing += len(t.expected)
		t.expected = nil
		t.mu.Unlock()
	}
	w.notes.mu.Lock()
	defer w.notes.mu.Unlock()
	lat, unexpected, wrongFired = w.notes.lat, w.notes.unexpected, w.notes.wrongFired
	w.notes.lat, w.notes.unexpected, w.notes.wrongFired = nil, 0, 0
	return lat, unexpected, wrongFired, missing
}
