package server

import (
	"sync"
	"time"

	"locsvc/internal/clock"
	"locsvc/internal/msg"
)

// Retry deduplication. Transports retry idempotent calls on timeout, so a
// leaf can receive the same UpdateReq or RegisterReq twice when only the
// reply was lost. Requests stamped with a per-sender Seq are applied
// exactly once: the first application remembers its reply here, and a
// duplicate re-sends the remembered reply without touching the stores —
// critical after a handover, where re-applying the update would fail with
// not_found against the departed object.
//
// A sender's Seqs are monotonic (one counter across its request types), so
// what has to be remembered is each sender's most recent requests, and
// nothing orders one sender's requests against another's. The table is
// therefore one small window per sender: a power-of-two ring of slots
// indexed by seq & mask. A request a full ring behind the sender's newest
// has been overwritten and is a miss; so is one older than DedupeWindow
// (retries arrive within a retry budget, seconds at most). The update path
// takes the sender table's read lock and the window's own lock — no lock is
// shared between senders — and allocates nothing: an in-area reply is
// rebuilt from the accuracy kept in the slot, only Moved and registration
// replies are kept boxed.
//
// A ring starts at one slot and doubles, up to DedupeCap, only when a
// remember would overwrite a slot that is still inside the window: a device
// that reports once per window or less often costs one slot, a client
// pipelining thousands of objects over one node grows the depth it needs.
// Nothing shrinks a ring; sweep drops every window whose newest slot has
// left DedupeWindow, and that bounds the table to the senders seen within
// the window, each with at most one grown ring.
//
// A leaf restart or a failover forgets the windows with the process — which
// is exactly right: the first post-restart update must be applied, not
// answered from a stale remembered reply.

// Dedupe window defaults: long enough for every attempt of a default retry
// budget; the cap is the pipeline depth one sender can have remembered.
const (
	defaultDedupeWindow = 30 * time.Second
	defaultDedupeCap    = 4096
)

// dedupeSlot is one remembered outcome.
type dedupeSlot struct {
	seq uint64 // 0 marks an empty slot
	at  int64  // dedupe.now() of the first application
	// reply is the remembered reply, except for the one reply the update
	// path produces per in-area update: UpdateRes{OfferedAcc: acc} is kept
	// as acc with reply nil, and rebuilt on a hit.
	acc   float64
	reply msg.Message
}

// senderWindow is one sender's ring of remembered outcomes.
type senderWindow struct {
	mu   sync.Mutex
	ring []dedupeSlot // ring[seq&mask]; the length is a power of two
	used int          // slots holding a seq, expired ones included
	last int64        // at of the newest remember
}

// dedupe is the per-sender remembered-reply table of a leaf.
type dedupe struct {
	window  int64 // nanoseconds
	maxRing int   // largest power of two within DedupeCap
	clk     clock.Clock
	epoch   time.Time // now() counts from here

	// mu guards the sender table, not the windows: lookups and remembers
	// hold it shared, so adding a sender and sweeping exclude them all.
	mu      sync.RWMutex
	senders map[msg.NodeID]*senderWindow
	swept   int64 // now() of the last sweep
}

// newDedupe builds a leaf's table on the server's clock.
func newDedupe(window time.Duration, capacity int, clk clock.Clock) *dedupe {
	if window <= 0 {
		window = defaultDedupeWindow
	}
	if capacity <= 0 {
		capacity = defaultDedupeCap
	}
	maxRing := 1
	for maxRing*2 <= capacity {
		maxRing *= 2
	}
	return &dedupe{
		window:  int64(window),
		maxRing: maxRing,
		clk:     clk,
		epoch:   clk.Now(),
		senders: make(map[msg.NodeID]*senderWindow),
	}
}

// now is the table's time: nanoseconds since its creation, monotonic when
// the clock's readings are.
func (d *dedupe) now() int64 { return int64(d.clk.Now().Sub(d.epoch)) }

// lookup returns the remembered reply for (sender, seq), if any. Seq 0 is
// never remembered (unstamped senders opted out); a slot older than the
// window is a miss.
func (d *dedupe) lookup(sender msg.NodeID, seq uint64) (msg.Message, bool) {
	if seq == 0 {
		return nil, false
	}
	d.mu.RLock()
	w := d.senders[sender]
	d.mu.RUnlock()
	if w == nil {
		return nil, false
	}
	// A window the sweep dropped meanwhile holds nothing live: still a miss.
	w.mu.Lock()
	sl := w.ring[seq&uint64(len(w.ring)-1)]
	w.mu.Unlock()
	if sl.seq != seq || d.now()-sl.at >= d.window {
		return nil, false
	}
	if sl.reply == nil {
		return msg.UpdateRes{OfferedAcc: sl.acc}, true
	}
	return sl.reply, true
}

// remember stores the reply for (sender, seq). Seq 0 is ignored.
func (d *dedupe) remember(sender msg.NodeID, seq uint64, reply msg.Message) {
	d.put(sender, dedupeSlot{seq: seq, reply: reply})
}

// rememberInArea stores the reply of an in-area update, an UpdateRes that
// carries nothing but the offered accuracy, without boxing it.
func (d *dedupe) rememberInArea(sender msg.NodeID, seq uint64, offeredAcc float64) {
	d.put(sender, dedupeSlot{seq: seq, acc: offeredAcc})
}

func (d *dedupe) put(sender msg.NodeID, sl dedupeSlot) {
	if sl.seq == 0 {
		return
	}
	sl.at = d.now()
	d.mu.RLock()
	if w := d.senders[sender]; w != nil {
		w.put(sl, d.window, d.maxRing)
		d.mu.RUnlock()
		return
	}
	d.mu.RUnlock()

	// A sender not seen before (or since it was swept). Without a janitor
	// tick, this is also what keeps the table swept.
	d.mu.Lock()
	defer d.mu.Unlock()
	if sl.at-d.swept >= d.window {
		d.sweepLocked(sl.at)
	}
	w := d.senders[sender]
	if w == nil {
		w = &senderWindow{ring: make([]dedupeSlot, 1)}
		d.senders[sender] = w
	}
	w.put(sl, d.window, d.maxRing)
}

// put places sl in the ring. The first application wins: a racing duplicate
// of a live slot changes nothing. A live slot of another seq makes the ring
// double rather than forget it, until maxRing.
func (w *senderWindow) put(sl dedupeSlot, window int64, maxRing int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		cur := &w.ring[sl.seq&uint64(len(w.ring)-1)]
		if cur.seq != 0 && sl.at-cur.at < window {
			if cur.seq == sl.seq {
				return
			}
			if len(w.ring) < maxRing {
				w.grow()
				continue
			}
		}
		if cur.seq == 0 {
			w.used++
		}
		*cur = sl
		if sl.at > w.last {
			w.last = sl.at
		}
		return
	}
}

// grow doubles the ring. Slots that were distinct modulo the old length
// stay distinct modulo the new one, so nothing is lost.
func (w *senderWindow) grow() {
	ring := make([]dedupeSlot, 2*len(w.ring))
	for _, sl := range w.ring {
		if sl.seq != 0 {
			ring[sl.seq&uint64(len(ring)-1)] = sl
		}
	}
	w.ring = ring
}

// sweep drops every window whose newest slot is older than the dedupe
// window and reports what is left: the senders and the slots holding a
// reply. The janitor calls it every tick.
func (d *dedupe) sweep() (senders, remembered int) {
	now := d.now()
	d.mu.Lock()
	defer d.mu.Unlock()
	remembered = d.sweepLocked(now)
	return len(d.senders), remembered
}

// sweepLocked runs with d.mu held exclusively, which excludes every
// remember: the windows' fields are read without their locks.
func (d *dedupe) sweepLocked(now int64) (remembered int) {
	d.swept = now
	for id, w := range d.senders {
		if now-w.last >= d.window {
			delete(d.senders, id)
		} else {
			remembered += w.used
		}
	}
	return remembered
}
