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

// ringLen returns the length of sender's ring, 0 when it has no window.
func (d *dedupe) ringLen(sender msg.NodeID) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if w := d.senders[sender]; w != nil {
		return len(w.ring)
	}
	return 0
}

// TestDedupeSendersDoNotCollide pins that the key is (sender, seq): two
// senders using the same seq each get their own reply back.
func TestDedupeSendersDoNotCollide(t *testing.T) {
	d := newDedupe(time.Minute, 8, manualClock())
	d.remember("a", 7, moved("a", 7))
	d.rememberInArea("b", 7, 25)

	if got, ok := d.lookup("a", 7); !ok || !same(got, moved("a", 7)) {
		t.Errorf("lookup(a, 7) = %+v, %v; want a's Moved reply", got, ok)
	}
	if got, ok := d.lookup("b", 7); !ok || !same(got, msg.UpdateRes{OfferedAcc: 25}) {
		t.Errorf("lookup(b, 7) = %+v, %v; want b's in-area reply", got, ok)
	}
	if _, ok := d.lookup("c", 7); ok {
		t.Error("lookup(c, 7) hit for a sender that never sent")
	}
}

// TestDedupeDepthIsTheCap pins how far behind a sender's newest request a
// retry can be: the window remembers the last N seqs, N the largest power
// of two within DedupeCap.
func TestDedupeDepthIsTheCap(t *testing.T) {
	for _, tc := range []struct{ capacity, depth int }{
		{1, 1}, {2, 2}, {3, 2}, {8, 8}, {100, 64}, {0, defaultDedupeCap},
	} {
		d := newDedupe(time.Minute, tc.capacity, manualClock())
		newest := uint64(3 * tc.depth)
		for seq := uint64(1); seq <= newest; seq++ {
			d.rememberInArea("s", seq, float64(seq))
		}
		if got := d.ringLen("s"); got != tc.depth {
			t.Errorf("cap %d: ring grew to %d slots, want %d", tc.capacity, got, tc.depth)
		}
		behind := newest - uint64(tc.depth)
		if _, ok := d.lookup("s", behind); ok {
			t.Errorf("cap %d: seq %d, %d behind the newest, is still remembered", tc.capacity, behind, tc.depth)
		}
		got, ok := d.lookup("s", behind+1)
		if want := (msg.UpdateRes{OfferedAcc: float64(behind + 1)}); !ok || !same(got, want) {
			t.Errorf("cap %d: lookup of seq %d, %d behind the newest = %+v, %v; want %+v",
				tc.capacity, behind+1, tc.depth-1, got, ok, want)
		}
	}
}

// TestDedupeRingGrowth pins the growth rule: a ring doubles only when the
// slot a remember would overwrite is still inside the window, and never
// past the cap.
func TestDedupeRingGrowth(t *testing.T) {
	clk := manualClock()
	d := newDedupe(10*time.Second, 4, clk)
	for _, step := range []struct {
		after    time.Duration // since the previous step
		seq      uint64
		wantRing int
		why      string
	}{
		{0, 1, 1, "first request"},
		{11 * time.Second, 2, 1, "seq 1 had expired: overwritten in place"},
		{time.Second, 3, 2, "seq 2 is live: double"},
		{time.Second, 4, 4, "seq 2 is live in seq 4's slot: double"},
		{time.Second, 5, 4, "seq 5's slot is empty"},
		{time.Second, 6, 4, "seq 2 is live, but the ring is at the cap: overwritten"},
		{20 * time.Second, 7, 4, "nothing shrinks a ring"},
	} {
		clk.Advance(step.after)
		d.rememberInArea("s", step.seq, 1)
		if got := d.ringLen("s"); got != step.wantRing {
			t.Fatalf("after seq %d (%s): ring has %d slots, want %d", step.seq, step.why, got, step.wantRing)
		}
		if _, ok := d.lookup("s", step.seq); !ok {
			t.Fatalf("seq %d not remembered right after its remember", step.seq)
		}
	}
	// Growing lost nothing that was live: seq 6 overwrote seq 2 at the cap,
	// everything before seq 7 has expired by now.
	for seq, want := range map[uint64]bool{2: false, 5: false, 6: false, 7: true} {
		if _, ok := d.lookup("s", seq); ok != want {
			t.Errorf("lookup(seq %d) hit = %v, want %v", seq, ok, want)
		}
	}
}

// TestDedupeZeroSeqOptsOut pins that an unstamped request is neither
// remembered nor found, and costs no window.
func TestDedupeZeroSeqOptsOut(t *testing.T) {
	d := newDedupe(time.Minute, 8, manualClock())
	d.remember("s", 0, moved("s", 0))
	d.rememberInArea("s", 0, 10)
	if _, ok := d.lookup("s", 0); ok {
		t.Error("lookup(s, 0) hit")
	}
	if senders, remembered := d.sweep(); senders != 0 || remembered != 0 {
		t.Errorf("table holds %d senders, %d replies after unstamped requests only", senders, remembered)
	}
}

// TestDedupeFirstApplicationWins pins that a racing duplicate's remember
// changes nothing, while the same seq is applied anew — and remembered anew
// — once the first has left the window.
func TestDedupeFirstApplicationWins(t *testing.T) {
	clk := manualClock()
	d := newDedupe(10*time.Second, 8, clk)
	d.rememberInArea("s", 5, 10)
	d.remember("s", 5, moved("s", 5))
	if got, ok := d.lookup("s", 5); !ok || !same(got, msg.UpdateRes{OfferedAcc: 10}) {
		t.Errorf("lookup = %+v, %v; want the first application's in-area reply", got, ok)
	}
	clk.Advance(10 * time.Second)
	if _, ok := d.lookup("s", 5); ok {
		t.Error("seq 5 still remembered a full window later")
	}
	d.remember("s", 5, moved("s", 5))
	if got, ok := d.lookup("s", 5); !ok || !same(got, moved("s", 5)) {
		t.Errorf("lookup after re-application = %+v, %v; want the new reply", got, ok)
	}
}

// TestDedupeUpdatePathAllocatesNothing pins the cost of the table on an
// in-area update: neither the lookup that misses nor the remember of the
// reply allocates once the sender's ring has its depth.
func TestDedupeUpdatePathAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	d := newDedupe(time.Minute, 64, clock.Real{})
	seq := uint64(0)
	update := func() {
		seq++
		if _, ok := d.lookup("s", seq); ok {
			t.Fatalf("lookup(s, %d) hit before its remember", seq)
		}
		d.rememberInArea("s", seq, 10)
	}
	for i := 0; i < 64; i++ { // the sender's window and the ring's doublings
		update()
	}
	if allocs := testing.AllocsPerRun(1000, update); allocs != 0 {
		t.Errorf("an in-area update costs the dedupe table %v allocations, want 0", allocs)
	}
}

// TestDedupeSweepDropsSilentSenders pins the bound on the sender table: a
// sweep drops exactly the senders whose newest request has left the window,
// and a new sender triggers one when no janitor tick has for a window.
func TestDedupeSweepDropsSilentSenders(t *testing.T) {
	clk := manualClock()
	d := newDedupe(10*time.Second, 8, clk)
	d.rememberInArea("old", 1, 1)
	clk.Advance(6 * time.Second)
	d.rememberInArea("new", 1, 1)
	d.rememberInArea("new", 2, 1)
	if senders, remembered := d.sweep(); senders != 2 || remembered != 3 {
		t.Fatalf("sweep = %d senders, %d replies; want 2, 3", senders, remembered)
	}
	clk.Advance(6 * time.Second)
	if senders, remembered := d.sweep(); senders != 1 || remembered != 2 {
		t.Fatalf("sweep = %d senders, %d replies; want 1, 2 (old is 12 s silent)", senders, remembered)
	}
	// No further tick: the arrival of a sender not seen before sweeps.
	clk.Advance(10 * time.Second)
	d.rememberInArea("newer", 1, 1)
	if got := d.ringLen("new"); got != 0 {
		t.Errorf("sender silent for a window survived the arrival of a new one (ring %d)", got)
	}
	if senders, remembered := d.sweep(); senders != 1 || remembered != 1 {
		t.Errorf("sweep = %d senders, %d replies; want 1, 1", senders, remembered)
	}
}

// TestDedupeHammer runs 8 goroutines over the same 64 senders' seq streams,
// so every (sender, seq) is looked up and remembered by several at once,
// with a ring small enough to wrap all the time and a sweeper beside them.
// Whatever the interleaving, a hit returns the reply remembered for exactly
// that (sender, seq). Run under -race.
func TestDedupeHammer(t *testing.T) {
	const (
		senders    = 64
		goroutines = 8
		seqs       = 400
	)
	clk := manualClock()
	d := newDedupe(50*time.Millisecond, 16, clk)
	ids := make([]msg.NodeID, senders)
	for i := range ids {
		ids[i] = msg.NodeID(fmt.Sprintf("c%02d", i))
	}
	// Even seqs are in-area replies, odd ones boxed.
	want := func(s int, seq uint64) msg.Message {
		if seq%2 == 0 {
			return msg.UpdateRes{OfferedAcc: float64(s)*1e6 + float64(seq)}
		}
		return moved(ids[s], seq)
	}
	var hits atomic.Int64
	check := func(s int, seq uint64) {
		if got, ok := d.lookup(ids[s], seq); ok {
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
				clk.Advance(time.Millisecond)
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
		if got := d.ringLen(id); got > 16 {
			t.Errorf("%s: ring of %d slots, cap 16", id, got)
		}
	}
}

// BenchmarkDedupe measures what one update pays the table — a lookup that
// misses and the remember of its in-area reply — and what a sender costs
// the leaf in memory, for the two kinds of sender there are: a client
// pipelining thousands of objects over one node (the benchmark's), whose
// ring grows to the cap, and a device tracking one object (the paper's
// model), whose ring the growth rule keeps at the depth its report interval
// needs: one slot when it reports once per dedupe window or less often.
func BenchmarkDedupe(b *testing.B) {
	b.Run("pipelined/senders=2", func(b *testing.B) {
		benchDedupe(b, 2, 2*20000, clock.Real{}, func(int64) {})
	})
	for _, every := range []time.Duration{10 * time.Second, defaultDedupeWindow} {
		b.Run(fmt.Sprintf("devices/senders=4096/every=%s", every), func(b *testing.B) {
			clk := manualClock()
			var at atomic.Int64 // the round the clock stands at
			// One round over the devices is one report interval.
			benchDedupe(b, 4096, 8*4096, clk, func(round int64) {
				for r := at.Load(); round > r; r = at.Load() {
					if at.CompareAndSwap(r, round) {
						clk.Advance(time.Duration(round-r) * every)
						return
					}
				}
			})
		})
	}
}

// benchDedupe issues warm requests before the timer starts, so that every
// sender is known and every ring at its depth, then b.N more.
func benchDedupe(b *testing.B, senders, warm int, clk clock.Clock, atRound func(round int64)) {
	ids := make([]msg.NodeID, senders)
	for i := range ids {
		ids[i] = msg.NodeID(fmt.Sprintf("c%04d", i))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := newDedupe(0, 0, clk)
	// The senders' streams are dealt out op by op: op n is sender n mod
	// senders sending its seq n/senders+1, whichever goroutine draws it.
	var next atomic.Int64
	issue := func() {
		n := next.Add(1) - 1
		round := n / int64(senders)
		atRound(round)
		id, seq := ids[n%int64(senders)], uint64(round)+1
		if _, ok := d.lookup(id, seq); ok {
			b.Errorf("lookup(%s, %d) hit before its remember", id, seq)
		}
		d.rememberInArea(id, seq, 10)
	}
	for i := 0; i < warm; i++ {
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
	b.ReportMetric(float64(d.ringLen(ids[0])), "slots/sender")
	runtime.KeepAlive(d)
}
