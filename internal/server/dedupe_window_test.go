package server

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locsvc/internal/clock"
	"locsvc/internal/msg"
)

// manualClock returns a clock the tests step by hand.
func manualClock() *clock.Manual { return clock.NewManual(time.Unix(1000, 0)) }

// moved is a boxed reply that names the request it answers.
func moved(sender msg.NodeID, seq uint64) msg.UpdateRes {
	return msg.UpdateRes{Moved: true, NewAgent: msg.NodeID(fmt.Sprintf("%s/%d", sender, seq))}
}

// same compares replies; an UpdateRes carries an area, so == would panic.
func same(got, want msg.Message) bool { return reflect.DeepEqual(got, want) }

// held returns how many replies sender's window holds; ok is false when
// the table has no window for it.
func (d *dedupe) held(sender msg.NodeID) (n int, ok bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if w := d.senders[sender]; w != nil {
		w.mu.Lock()
		defer w.mu.Unlock()
		return len(w.held) - w.dead, true
	}
	return 0, false
}

// applyInArea is what the leaf does with an in-area update: look it up,
// and remember its reply when it is new.
func (d *dedupe) applyInArea(sender msg.NodeID, seq, floor uint64, acc float64) {
	if _, dup := d.lookup(sender, seq, floor); !dup {
		d.rememberInArea(sender, seq, acc)
	}
}

// TestDedupeSendersDoNotCollide pins that the key is (sender, seq): two
// senders using the same seq each get their own reply back.
func TestDedupeSendersDoNotCollide(t *testing.T) {
	d := newDedupe(manualClock())
	d.remember("a", 7, moved("a", 7))
	d.rememberInArea("b", 7, 25)

	if got, ok := d.lookup("a", 7, 7); !ok || !same(got, moved("a", 7)) {
		t.Errorf("lookup(a, 7) = %+v, %v; want a's Moved reply", got, ok)
	}
	if got, ok := d.lookup("b", 7, 7); !ok || !same(got, msg.UpdateRes{OfferedAcc: 25}) {
		t.Errorf("lookup(b, 7) = %+v, %v; want b's in-area reply", got, ok)
	}
	if _, ok := d.lookup("c", 7, 7); ok {
		t.Error("lookup(c, 7) hit for a sender that never sent")
	}
}

// TestDedupeFloorBoundsTheWindow pins what a window holds: every reply
// from the sender's highest floor up, however far the newest request is
// ahead of it, and nothing below it. A request below the floor is
// answered notAwaited.
func TestDedupeFloorBoundsTheWindow(t *testing.T) {
	d := newDedupe(manualClock())
	// Seq 1 stays awaited while 5 000 newer requests go by.
	for seq := uint64(1); seq <= 5001; seq++ {
		d.applyInArea("s", seq, 1, float64(seq))
	}
	if n, _ := d.held("s"); n != 5001 {
		t.Fatalf("window holds %d replies under floor 1, want all 5001", n)
	}
	if got, ok := d.lookup("s", 1, 1); !ok || !same(got, msg.UpdateRes{OfferedAcc: 1}) {
		t.Fatalf("lookup(s, 1) = %+v, %v; want the first reply", got, ok)
	}
	// The sender's next request says it awaits nothing below 4 990.
	d.applyInArea("s", 5002, 4990, 5002)
	if n, _ := d.held("s"); n != 13 {
		t.Errorf("window holds %d replies under floor 4990, want 13", n)
	}
	for _, seq := range []uint64{1, 4989} {
		if got, dup := d.lookup("s", seq, seq); !dup || got != notAwaited {
			t.Errorf("lookup(s, %d) below the floor = %+v, %v; want notAwaited", seq, got, dup)
		}
	}
	if got, ok := d.lookup("s", 4990, 4990); !ok || !same(got, msg.UpdateRes{OfferedAcc: 4990}) {
		t.Errorf("lookup(s, 4990) at the floor = %+v, %v; want its reply", got, ok)
	}
	// A floor lower than one already seen moves nothing.
	d.applyInArea("s", 5003, 4000, 5003)
	if got, dup := d.lookup("s", 4500, 4000); !dup || got != notAwaited {
		t.Errorf("an older floor lowered the window: lookup(s, 4500) = %+v, %v", got, dup)
	}
}

// TestDedupeZeroSeqOptsOut pins that an unstamped request is neither
// remembered nor found, and costs no window.
func TestDedupeZeroSeqOptsOut(t *testing.T) {
	d := newDedupe(manualClock())
	d.remember("s", 0, moved("s", 0))
	d.rememberInArea("s", 0, 10)
	if _, ok := d.lookup("s", 0, 0); ok {
		t.Error("lookup(s, 0) hit")
	}
	if senders, remembered := d.sweep(); senders != 0 || remembered != 0 {
		t.Errorf("table holds %d senders, %d replies after unstamped requests only", senders, remembered)
	}
}

// TestDedupeFirstApplicationWins pins that a racing duplicate's remember
// changes nothing, and that a reply whose seq the floor passed while it
// was applied is not kept.
func TestDedupeFirstApplicationWins(t *testing.T) {
	d := newDedupe(manualClock())
	d.rememberInArea("s", 5, 10)
	d.remember("s", 5, moved("s", 5))
	if got, ok := d.lookup("s", 5, 5); !ok || !same(got, msg.UpdateRes{OfferedAcc: 10}) {
		t.Errorf("lookup = %+v, %v; want the first application's in-area reply", got, ok)
	}
	// Seq 6 is being applied when seq 7 arrives saying 6 is not awaited.
	if _, dup := d.lookup("s", 6, 5); dup {
		t.Fatal("seq 6 found before its remember")
	}
	d.applyInArea("s", 7, 7, 1)
	d.remember("s", 6, moved("s", 6))
	if n, _ := d.held("s"); n != 1 {
		t.Errorf("window holds %d replies, want seq 7's alone", n)
	}
}

// TestDedupeUpdatePathAllocatesNothing pins the cost of the table on an
// in-area update: neither the lookup that misses nor the remember of the
// reply allocates once the sender's window holds its depth.
func TestDedupeUpdatePathAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	d := newDedupe(clock.Real{})
	seq := uint64(0)
	update := func() {
		seq++
		floor := max(seq, 64) - 63 // 64 in flight
		if _, ok := d.lookup("s", seq, floor); ok {
			t.Fatalf("lookup(s, %d) hit before its remember", seq)
		}
		d.rememberInArea("s", seq, 10)
	}
	for i := 0; i < 64; i++ { // the sender's window and its depth
		update()
	}
	if allocs := testing.AllocsPerRun(1000, update); allocs != 0 {
		t.Errorf("an in-area update costs the dedupe table %v allocations, want 0", allocs)
	}
}

// TestDedupeSweepDropsSilentSenders pins the bound on the sender table: a
// sweep drops exactly the senders silent for dedupeIdle, and a new sender
// triggers one when no janitor tick has for that long.
func TestDedupeSweepDropsSilentSenders(t *testing.T) {
	clk := manualClock()
	d := newDedupe(clk)
	d.applyInArea("old", 1, 1, 1)
	clk.Advance(dedupeIdle / 2)
	d.applyInArea("new", 1, 1, 1)
	d.applyInArea("new", 2, 1, 1)
	if senders, remembered := d.sweep(); senders != 2 || remembered != 3 {
		t.Fatalf("sweep = %d senders, %d replies; want 2, 3", senders, remembered)
	}
	clk.Advance(dedupeIdle / 2)
	if senders, remembered := d.sweep(); senders != 1 || remembered != 2 {
		t.Fatalf("sweep = %d senders, %d replies; want 1, 2 (old is dedupeIdle silent)", senders, remembered)
	}
	// No further tick: the arrival of a sender not seen before sweeps.
	clk.Advance(dedupeIdle)
	d.applyInArea("newer", 1, 1, 1)
	if n, ok := d.held("new"); ok {
		t.Errorf("sender silent for dedupeIdle survived the arrival of a new one (%d replies)", n)
	}
	if senders, remembered := d.sweep(); senders != 1 || remembered != 1 {
		t.Errorf("sweep = %d senders, %d replies; want 1, 1", senders, remembered)
	}
}

// TestDedupeHammer runs 8 goroutines over the same 64 senders' seq streams,
// so every (sender, seq) is looked up and remembered by several at once,
// with floors trailing the seqs so windows drop replies all the time and
// a sweeper beside them whose clock drops silent senders. Whatever the
// interleaving, a hit returns the reply remembered for exactly that
// (sender, seq). Run under -race.
func TestDedupeHammer(t *testing.T) {
	const (
		senders    = 64
		goroutines = 8
		seqs       = 400
		depth      = 4 // seqs in flight per sender
	)
	clk := manualClock()
	d := newDedupe(clk)
	ids := make([]msg.NodeID, senders)
	for i := range ids {
		ids[i] = msg.NodeID(fmt.Sprintf("c%02d", i))
	}
	floor := func(seq uint64) uint64 { return max(seq, depth) - depth + 1 }
	// Even seqs are in-area replies, odd ones boxed.
	want := func(s int, seq uint64) msg.Message {
		if seq%2 == 0 {
			return msg.UpdateRes{OfferedAcc: float64(s)*1e6 + float64(seq)}
		}
		return moved(ids[s], seq)
	}
	var hits atomic.Int64
	check := func(s int, seq uint64) {
		if got, ok := d.lookup(ids[s], seq, floor(seq)); ok && got != notAwaited {
			hits.Add(1)
			if !same(got, want(s, seq)) {
				t.Errorf("lookup(%s, %d) = %+v, want %+v", ids[s], seq, got, want(s, seq))
			}
		}
	}
	stop := make(chan struct{})
	var sweeper sync.WaitGroup
	sweeper.Add(1)
	go func() {
		defer sweeper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				clk.Advance(dedupeIdle / 200)
				d.sweep()
				runtime.Gosched()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for seq := uint64(1); seq <= seqs; seq++ {
				for i := 0; i < senders; i++ {
					s := (i + g*senders/goroutines) % senders
					check(s, seq)
					if seq%2 == 0 {
						d.rememberInArea(ids[s], seq, float64(s)*1e6+float64(seq))
					} else {
						d.remember(ids[s], seq, want(s, seq))
					}
					check(s, seq)
					if seq > 3 {
						check(s, seq-3)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	sweeper.Wait()
	if hits.Load() == 0 {
		t.Error("no lookup ever hit: the hammer checked nothing")
	}
	for _, id := range ids {
		if n, _ := d.held(id); n > 2*depth {
			t.Errorf("%s: window of %d replies behind a floor %d seqs back", id, n, depth)
		}
	}
}

// BenchmarkDedupe measures what one update pays the table — a lookup that
// misses and the remember of its in-area reply — and what a sender costs
// the leaf in memory, for the two kinds of sender there are: a client
// pipelining 64 requests over one node (the benchmark's), whose window
// holds those 64, and a device tracking one object (the paper's model),
// which awaits one reply at a time.
func BenchmarkDedupe(b *testing.B) {
	b.Run("pipelined/senders=2/depth=64", func(b *testing.B) { benchDedupe(b, 2, 64) })
	b.Run("devices/senders=4096", func(b *testing.B) { benchDedupe(b, 4096, 1) })
}

// benchDedupe issues warm requests before the timer starts, so that every
// sender is known and every window at its depth, then b.N more. Each
// request's floor trails its seq by depth-1: the sender awaits depth.
func benchDedupe(b *testing.B, senders int, depth uint64) {
	ids := make([]msg.NodeID, senders)
	for i := range ids {
		ids[i] = msg.NodeID(fmt.Sprintf("c%04d", i))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := newDedupe(clock.Real{})
	// The senders' streams are dealt out op by op: op n is sender n mod
	// senders sending its seq n/senders+1, whichever goroutine draws it.
	var next atomic.Int64
	issue := func() {
		n := next.Add(1) - 1
		id, seq := ids[n%int64(senders)], uint64(n/int64(senders))+1
		// A request that another goroutine's floor overtook is notAwaited.
		if r, ok := d.lookup(id, seq, max(seq, depth)-depth+1); ok && r != notAwaited {
			b.Errorf("lookup(%s, %d) hit before its remember", id, seq)
		}
		d.rememberInArea(id, seq, 10)
	}
	for i := 0; i < senders*int(2*depth); i++ {
		issue()
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			issue()
		}
	})
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(senders), "B/sender")
	n, _ := d.held(ids[0])
	b.ReportMetric(float64(n), "replies/sender")
	runtime.KeepAlive(d)
}
