package clock

import (
	"container/heap"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Manual is a Clock that stands still until its holder calls Advance.
//
// Advance fires every timer whose deadline it reaches, in deadline order,
// and timers with equal deadlines in the order they were armed. An
// AfterFunc runs on the goroutine calling Advance, with Now reading its
// deadline, so when Advance returns every due callback has run, including
// those armed by a callback within the same Advance. A timer armed for zero
// or less fires at once in its own goroutine, as time.AfterFunc's does.
//
// A ticker that falls due during an Advance sends one tick, carrying the
// time the Advance ends at, once the clock reads that time; its next
// deadline is the first period boundary after the span. So a large Advance
// drops ticks as time.Ticker drops them for a slow reader, and a reader
// woken by a tick never sees the clock short of the span's end. A tick
// still waiting when a later one falls due is replaced by it, so the tick
// a reader takes carries the latest time that fell due.
//
// BlockUntil lets a test wait for the code under test to arm what it is
// about to advance past, without sleeping.
type Manual struct {
	start   time.Time
	elapsed atomic.Int64 // since start; written under mu, read by Now without it

	mu     sync.Mutex
	armed  *sync.Cond // signalled whenever the armed count changes
	seq    uint64
	timers timerHeap
}

var _ Clock = (*Manual)(nil)

// NewManual returns a Manual clock reading start.
func NewManual(start time.Time) *Manual {
	m := &Manual{start: start}
	m.armed = sync.NewCond(&m.mu)
	return m
}

// manualTimer is one armed AfterFunc (f set) or ticker (period set).
type manualTimer struct {
	m      *Manual
	at     time.Time
	seq    uint64 // arming order, the tie-break between equal deadlines
	index  int    // position in the heap; -1 when not armed
	f      func()
	period time.Duration
	ch     chan time.Time
}

// Now implements Clock.
func (m *Manual) Now() time.Time { return m.start.Add(time.Duration(m.elapsed.Load())) }

// setLocked moves the clock to t if that is forward. Caller holds m.mu.
func (m *Manual) setLocked(t time.Time) {
	if d := t.Sub(m.start); d > time.Duration(m.elapsed.Load()) {
		m.elapsed.Store(int64(d))
	}
}

// AfterFunc implements Clock.
func (m *Manual) AfterFunc(d time.Duration, f func()) Timer {
	t := &manualTimer{m: m, f: f, index: -1}
	if d <= 0 {
		go f()
		return t
	}
	m.mu.Lock()
	m.armLocked(t, m.Now().Add(d))
	m.mu.Unlock()
	return t
}

// NewTicker implements Clock.
func (m *Manual) NewTicker(d time.Duration) *Ticker {
	if d <= 0 {
		panic("clock: non-positive interval for NewTicker")
	}
	ch := make(chan time.Time, 1)
	t := &manualTimer{m: m, period: d, ch: ch, index: -1}
	m.mu.Lock()
	m.armLocked(t, m.Now().Add(d))
	m.mu.Unlock()
	return &Ticker{C: ch, stop: func() { t.Stop() }}
}

// WithTimeout implements Clock: the context's deadline is now+d on m (or
// parent's, if earlier), and it is done with context.DeadlineExceeded on
// the Advance that reaches that deadline.
func (m *Manual) WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	inner, cancel := context.WithCancelCause(parent)
	ctx := &timeoutCtx{Context: inner, deadline: m.Now().Add(d)}
	if pd, ok := parent.Deadline(); ok && pd.Before(ctx.deadline) {
		ctx.deadline = pd
	}
	if d <= 0 {
		cancel(context.DeadlineExceeded)
		return ctx, func() { cancel(context.Canceled) }
	}
	t := m.AfterFunc(d, func() { cancel(context.DeadlineExceeded) })
	return ctx, func() {
		t.Stop()
		cancel(context.Canceled)
	}
}

// timeoutCtx is a Manual clock's WithTimeout context.
type timeoutCtx struct {
	context.Context
	deadline time.Time
}

func (c *timeoutCtx) Deadline() (time.Time, bool) { return c.deadline, true }

// Err reports context.DeadlineExceeded when the deadline (this context's or
// a parent's) ended it, as a context.WithTimeout context does.
func (c *timeoutCtx) Err() error {
	err := c.Context.Err()
	if err != nil && errors.Is(context.Cause(c.Context), context.DeadlineExceeded) {
		return context.DeadlineExceeded
	}
	return err
}

// Stop implements Timer.
func (t *manualTimer) Stop() bool {
	m := t.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if t.index < 0 {
		return false
	}
	heap.Remove(&m.timers, t.index)
	m.armed.Broadcast()
	return true
}

// armLocked puts t in the heap at deadline at. Caller holds m.mu.
func (m *Manual) armLocked(t *manualTimer, at time.Time) {
	m.seq++
	t.at, t.seq = at, m.seq
	heap.Push(&m.timers, t)
	m.armed.Broadcast()
}

// Advance moves the clock forward by d, firing what falls due on the way.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	end := m.Now().Add(d)
	var ticked []*manualTimer
	for len(m.timers) > 0 && !m.timers[0].at.After(end) {
		t := heap.Pop(&m.timers).(*manualTimer)
		m.setLocked(t.at)
		if t.period > 0 {
			ticked = append(ticked, t)
			skipped := end.Sub(t.at) / t.period
			m.armLocked(t, t.at.Add((skipped+1)*t.period))
			continue
		}
		m.armed.Broadcast()
		m.mu.Unlock()
		t.f()
		m.mu.Lock()
	}
	m.setLocked(end)
	for _, t := range ticked {
		if t.index < 0 {
			continue // stopped by a callback of this Advance
		}
		select {
		case t.ch <- end:
		default: // the reader has not taken the last tick: replace it
			select {
			case <-t.ch:
			default:
			}
			t.ch <- end
		}
	}
	m.mu.Unlock()
}

// BlockUntil blocks until at least n timers and tickers are armed on m.
func (m *Manual) BlockUntil(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.timers) < n {
		m.armed.Wait()
	}
}

// timerHeap orders armed timers by deadline, then by arming order.
type timerHeap []*manualTimer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}

func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *timerHeap) Push(x any) {
	t := x.(*manualTimer)
	t.index = len(*h)
	*h = append(*h, t)
}

func (h *timerHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	old[len(old)-1] = nil
	t.index = -1
	*h = old[:len(old)-1]
	return t
}
