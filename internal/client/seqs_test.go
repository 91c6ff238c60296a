package client

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locsvc/internal/clock"
	"locsvc/internal/transport"
)

// newTestSeqs returns the seqs of a client attached to a network on clk.
func newTestSeqs(t *testing.T, clk clock.Clock) *seqs {
	t.Helper()
	net := transport.NewInproc(transport.InprocOptions{Clock: clk})
	t.Cleanup(func() { net.Close() })
	c, err := New(net, "c", "entry", Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &c.seqs
}

// TestSeqFloorIsLowestAwaited pins the floor a request carries: the lowest
// seq still awaited, whichever order the others are released in, with a
// seq whose deadline passed no longer awaited, released or not.
func TestSeqFloorIsLowestAwaited(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	q := newTestSeqs(t, clk)
	forever := context.Background()
	soon := transport.WithCallDeadline(forever, clk, time.Second)

	a, floor := q.draw(forever)
	if floor != a {
		t.Fatalf("first draw: floor %d, want its own seq %d", floor, a)
	}
	b, _ := q.draw(soon) // never released: its deadline frees it
	c, _ := q.draw(forever)
	if _, floor := q.draw(forever); floor != a {
		t.Fatalf("floor = %d with %d awaited, want %d", floor, a, a)
	}
	q.release(c)
	q.release(a)
	if _, floor := q.draw(forever); floor != b {
		t.Fatalf("floor = %d after releasing %d and %d, want %d", floor, a, c, b)
	}
	clk.Advance(2 * time.Second)
	if _, floor := q.draw(forever); floor != c+1 {
		t.Fatalf("floor = %d past %d's deadline, want %d (the oldest unreleased draw)", floor, b, c+1)
	}
}

// TestSeqFloorHoldsEveryAwaited pins that any number of awaited seqs
// hold the floor, however far the newest is ahead of it.
func TestSeqFloorHoldsEveryAwaited(t *testing.T) {
	q := newTestSeqs(t, clock.Real{})
	first, _ := q.draw(context.Background())
	for i := 0; i < 1000; i++ {
		seq, floor := q.draw(context.Background())
		if floor != first {
			t.Fatalf("draw %d: floor %d, want %d", i, floor, first)
		}
		if i%2 == 0 {
			q.release(seq)
		}
	}
	q.release(first)
	if _, floor := q.draw(context.Background()); floor != first+2 {
		t.Fatalf("floor = %d, want %d: the first seq left awaited", floor, first+2)
	}
}

// TestSeqFloorNeverPassesAnAwaitedSeq draws and releases from many
// goroutines at once: while a seq is awaited, no floor drawn anywhere may
// pass it. Run under -race.
func TestSeqFloorNeverPassesAnAwaitedSeq(t *testing.T) {
	q := newTestSeqs(t, clock.Real{})
	var highest atomic.Uint64 // the highest floor drawn so far
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				seq, floor := q.draw(context.Background())
				for h := highest.Load(); floor > h && !highest.CompareAndSwap(h, floor); h = highest.Load() {
				}
				if h := highest.Load(); h > seq {
					t.Errorf("floor %d sent while seq %d was awaited", h, seq)
					return
				}
				q.release(seq)
			}
		}()
	}
	wg.Wait()
}
