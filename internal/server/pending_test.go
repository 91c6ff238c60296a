package server

import (
	"context"
	"sync"
	"testing"
	"time"

	"locsvc/internal/clock"
	"locsvc/internal/metrics"
	"locsvc/internal/msg"
)

// TestPendingReplySlot drives one operation's reply slot on a manual clock:
// senders goroutines deliver replies each (dup: every one twice), and
// await collects them until the query timeout, which the test fires by
// advancing the clock. No more than pendingBound replies ever wait at once
// when the collector takes while they arrive, so none may be lost then.
func TestPendingReplySlot(t *testing.T) {
	const timeout = time.Second
	tests := []struct {
		name             string
		senders, replies int
		dup              bool
		closeFirst       bool // the operation is closed before anything arrives
		collectDuring    bool // the collector takes while the senders deliver
		taken            int
		late, overflow   int64
	}{
		{name: "one reply", senders: 1, replies: 1, taken: 1},
		{name: "duplicated reply", senders: 1, replies: 1, dup: true, taken: 2},
		{name: "reply after close", senders: 1, replies: 1, closeFirst: true, late: 1},
		{name: "64 concurrent deliveries", senders: 64, replies: 1, collectDuring: true, taken: 64},
		{name: "64 concurrent deliveries, 4 each", senders: 64, replies: 4, collectDuring: true, taken: pendingBound},
		{name: "past the bound", senders: 1, replies: pendingBound + 3, taken: pendingBound, overflow: 3},
		{name: "timeout with nothing delivered", collectDuring: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			clk := clock.NewManual(time.Now())
			p := newPending(metrics.NewRegistry())
			op := p.open()
			if tt.closeFirst {
				p.close(op)
			}
			expired, timer := clock.After(clk, timeout)
			defer timer.Stop()

			type result struct {
				got []msg.Message
				err error
			}
			collected := make(chan result, 1)
			collect := func() {
				var r result
				for {
					m, err := p.await(context.Background(), op, expired)
					if m == nil {
						r.err = err
						collected <- r
						return
					}
					r.got = append(r.got, m)
				}
			}
			if tt.collectDuring {
				go collect()
			}
			var wg sync.WaitGroup
			accepted := make([]int, tt.senders)
			for s := 0; s < tt.senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < tt.replies; i++ {
						m := msg.PosQueryRes{OpID: op.id, Hops: s*tt.replies + i}
						for n := 0; n < 1+btoi(tt.dup); n++ {
							if p.deliver(op.id, m) {
								accepted[s]++
							}
						}
					}
				}(s)
			}
			wg.Wait()
			// Every reply delivered is waiting or taken: the timeout
			// ends the collection only once the queue is empty.
			clk.Advance(timeout)
			if !tt.collectDuring {
				go collect()
			}
			var r result
			select {
			case r = <-collected:
			case <-time.After(10 * time.Second):
				t.Fatal("the collector did not return at the timeout")
			}
			if r.err != nil {
				t.Fatalf("await: %v", r.err)
			}

			sum := 0
			for _, n := range accepted {
				sum += n
			}
			if len(r.got) != tt.taken || sum != tt.taken {
				t.Errorf("taken %d, accepted %d, want %d", len(r.got), sum, tt.taken)
			}
			// Each sender's replies arrive in the order it sent them, and
			// none is lost or invented.
			seen := map[int]int{}
			last := map[int]int{}
			for _, m := range r.got {
				h := m.(msg.PosQueryRes).Hops
				seen[h]++
				if tt.replies > 0 {
					s := h / tt.replies
					if prev, ok := last[s]; ok && h < prev {
						t.Fatalf("sender %d: reply %d taken after %d", s, h, prev)
					}
					last[s] = h
				}
			}
			for h, n := range seen {
				if want := 1 + btoi(tt.dup); n != want {
					t.Errorf("reply %d taken %d times, want %d", h, n, want)
				}
			}
			if got := p.late.Value(); got != tt.late {
				t.Errorf("pending_reply_late = %d, want %d", got, tt.late)
			}
			if got := p.overflow.Value(); got != tt.overflow {
				t.Errorf("pending_reply_overflow = %d, want %d", got, tt.overflow)
			}

			// Closed, the operation takes nothing more.
			p.close(op)
			if p.deliver(op.id, msg.PosQueryRes{OpID: op.id}) {
				t.Error("a reply after close was accepted")
			}
			if got := p.late.Value(); got != tt.late+1 {
				t.Errorf("pending_reply_late after close = %d, want %d", got, tt.late+1)
			}
		})
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestPendingAwaitWaitsForTimeout: with nothing delivered, await returns
// only when the timer fires, and a reply delivered while it waits wakes it.
func TestPendingAwaitWaitsForTimeout(t *testing.T) {
	clk := clock.NewManual(time.Now())
	p := newPending(metrics.NewRegistry())
	op := p.open()
	defer p.close(op)
	expired, timer := clock.After(clk, time.Second)
	defer timer.Stop()

	got := make(chan msg.Message)
	go func() {
		for {
			m, _ := p.await(context.Background(), op, expired)
			got <- m
			if m == nil {
				return
			}
		}
	}()
	clk.Advance(time.Second - time.Nanosecond)
	p.deliver(op.id, msg.PosQueryRes{OpID: op.id, Found: true})
	select {
	case m := <-got:
		if m == nil {
			t.Fatal("await timed out before its timer fired")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a delivered reply did not wake the collector")
	}
	clk.Advance(time.Nanosecond)
	select {
	case m := <-got:
		if m != nil {
			t.Fatalf("await returned %v, want the timeout", m)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the timeout did not end the wait")
	}
}
