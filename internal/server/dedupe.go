package server

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"locsvc/internal/clock"
	"locsvc/internal/core"
	"locsvc/internal/msg"
)

// Retry deduplication. A transport retry can deliver an UpdateReq or
// RegisterReq twice when only the reply was lost. A request stamped with a
// per-sender Seq is applied once: the first application remembers its
// reply, and a duplicate gets it back without touching the stores —
// critical after a handover, where re-applying would fail with not_found.
// Each request also carries its sender's ack floor, the lowest Seq it
// still awaits from any leaf (Birrell & Nelson's at-most-once RPC, Raft's
// client sessions). A sender's window holds the replies from the highest
// floor seen up, in seq order; a request below it is a late copy its
// sender gave up on, and is not applied. Windows share no lock, and an
// in-area update allocates nothing: its reply is kept as the offered
// accuracy. A sender silent for dedupeIdle is dropped at the next janitor
// tick (or, without one, when a new sender arrives); a leaf restart
// forgets every window, so the first update after it is applied.

// dedupeIdle is how long a sender may be silent before its window is
// dropped: longer than any retry budget a client spends on one request.
const dedupeIdle = 30 * time.Second

// notAwaited answers, unapplied, a request below its sender's floor.
var notAwaited = msg.ErrorRes{Code: msg.CodeTimeout, Text: "request below its sender's ack floor, no longer awaited"}

// floorErr refuses a request whose floor is above its own seq.
func floorErr(seq, floor uint64) error {
	if floor > seq {
		return fmt.Errorf("%w: ack floor %d above seq %d", core.ErrBadRequest, floor, seq)
	}
	return nil
}

// dedupeSlot is one remembered outcome.
type dedupeSlot struct {
	seq uint64
	// reply is the remembered reply, nil for an in-area update's
	// UpdateRes{OfferedAcc: acc}, which a hit rebuilds.
	acc   float64
	reply msg.Message
}

// senderWindow is one sender's remembered outcomes.
type senderWindow struct {
	mu    sync.Mutex
	floor uint64       // the highest floor the sender has sent
	held  []dedupeSlot // the replies, by seq
	dead  int          // held[:dead] are below floor, compacted in bulk
	last  int64        // dedupe.now() of the sender's newest lookup
}

// dedupe is the per-sender remembered-reply table of a leaf.
type dedupe struct {
	clk   clock.Clock
	epoch time.Time // now() counts from here

	// mu guards the sender table, not the windows: lookups and remembers
	// hold it shared, adding a sender and sweeping exclusively.
	mu      sync.RWMutex
	senders map[msg.NodeID]*senderWindow
	swept   int64 // now() of the last sweep
}

// newDedupe builds a leaf's table on the server's clock.
func newDedupe(clk clock.Clock) *dedupe {
	return &dedupe{clk: clk, epoch: clk.Now(), senders: make(map[msg.NodeID]*senderWindow)}
}

// now is the table's time: nanoseconds since its creation.
func (d *dedupe) now() int64 { return int64(d.clk.Now().Sub(d.epoch)) }

// lookup raises sender's floor to floor and returns the reply for seq if
// the request is not to be applied: the remembered one, or notAwaited
// below the floor. Seq 0 is never remembered (unstamped senders opted
// out). The caller has refused a floor above seq.
func (d *dedupe) lookup(sender msg.NodeID, seq, floor uint64) (msg.Message, bool) {
	if seq == 0 {
		return nil, false
	}
	w := d.window(sender)
	now := d.now()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.last = max(w.last, now)
	if floor > w.floor {
		w.floor = floor
		if w.dead, _ = w.find(floor); 2*w.dead >= len(w.held) {
			n := copy(w.held, w.held[w.dead:])
			clear(w.held[n:]) // let the boxed replies go
			w.held, w.dead = w.held[:n], 0
		}
	}
	if seq < w.floor {
		return notAwaited, true
	}
	i, ok := w.find(seq)
	if !ok {
		return nil, false
	}
	sl := w.held[i]
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

// put places sl in its sender's window. The first application wins: a
// racing duplicate changes nothing. A seq the floor passed while it was
// applied is not kept: nobody will retry it.
func (d *dedupe) put(sender msg.NodeID, sl dedupeSlot) {
	if sl.seq == 0 {
		return
	}
	w := d.window(sender)
	w.mu.Lock()
	defer w.mu.Unlock()
	if sl.seq < w.floor {
		return
	}
	if i, found := w.find(sl.seq); !found {
		w.held = slices.Insert(w.held, i, sl)
	}
}

// find returns where seq is, or would be, in the window. w.mu is held.
func (w *senderWindow) find(seq uint64) (int, bool) {
	return slices.BinarySearchFunc(w.held, seq, func(sl dedupeSlot, seq uint64) int { return cmp.Compare(sl.seq, seq) })
}

// window returns sender's window, adding it for a sender not seen before
// (or since it was swept). Without a janitor tick, that is also what keeps
// the table swept.
func (d *dedupe) window(sender msg.NodeID) *senderWindow {
	d.mu.RLock()
	w := d.senders[sender]
	d.mu.RUnlock()
	if w != nil {
		return w
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.now()
	if now-d.swept >= int64(dedupeIdle) {
		d.sweepLocked(now)
	}
	if w = d.senders[sender]; w == nil {
		w = &senderWindow{last: now}
		d.senders[sender] = w
	}
	return w
}

// sweep drops every sender silent for dedupeIdle and reports what is
// left: the senders and the replies they hold. The janitor calls it every
// tick.
func (d *dedupe) sweep() (senders, remembered int) {
	now := d.now()
	d.mu.Lock()
	defer d.mu.Unlock()
	remembered = d.sweepLocked(now)
	return len(d.senders), remembered
}

// sweepLocked runs with d.mu held exclusively. A window that held more in
// a burst than it does now gives the memory back.
func (d *dedupe) sweepLocked(now int64) (remembered int) {
	d.swept = now
	for id, w := range d.senders {
		w.mu.Lock()
		if now-w.last >= int64(dedupeIdle) {
			delete(d.senders, id)
		} else {
			remembered += len(w.held) - w.dead
			if cap(w.held) > 2*(len(w.held)-w.dead)+8 {
				w.held, w.dead = append([]dedupeSlot(nil), w.held[w.dead:]...), 0
			}
		}
		w.mu.Unlock()
	}
	return remembered
}
