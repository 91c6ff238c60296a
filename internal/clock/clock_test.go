package clock

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

var epoch = time.Unix(1000, 0)

// recorder collects the names of fired callbacks, in firing order, with
// the clock's reading at each.
type recorder struct {
	mu    sync.Mutex
	fired []string
}

func (r *recorder) fn(m *Manual, name string) func() {
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.fired = append(r.fired, fmt.Sprintf("%s@%v", name, m.Now().Sub(epoch)))
	}
}

func (r *recorder) got() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.fired...)
}

// TestManualFiringOrder arms timers, advances, and checks which fired, in
// which order, and what Now read inside each callback.
func TestManualFiringOrder(t *testing.T) {
	type arm struct {
		name string
		d    time.Duration
	}
	cases := []struct {
		name     string
		arms     []arm
		stop     []string // stopped before any Advance
		advances []time.Duration
		want     []string
	}{
		{
			name:     "deadline order, not arming order",
			arms:     []arm{{"c", 30 * time.Millisecond}, {"a", 10 * time.Millisecond}, {"b", 20 * time.Millisecond}},
			advances: []time.Duration{time.Second},
			want:     []string{"a@10ms", "b@20ms", "c@30ms"},
		},
		{
			name:     "equal deadlines in arming order",
			arms:     []arm{{"x", 5 * time.Millisecond}, {"y", 5 * time.Millisecond}, {"z", 5 * time.Millisecond}},
			advances: []time.Duration{5 * time.Millisecond},
			want:     []string{"x@5ms", "y@5ms", "z@5ms"},
		},
		{
			name:     "only what the advance reaches",
			arms:     []arm{{"a", 10 * time.Millisecond}, {"b", 20 * time.Millisecond}},
			advances: []time.Duration{15 * time.Millisecond},
			want:     []string{"a@10ms"},
		},
		{
			name:     "a deadline exactly at the end fires",
			arms:     []arm{{"a", 10 * time.Millisecond}},
			advances: []time.Duration{4 * time.Millisecond, 6 * time.Millisecond},
			want:     []string{"a@10ms"},
		},
		{
			name:     "stopped before it fires",
			arms:     []arm{{"a", 10 * time.Millisecond}, {"b", 20 * time.Millisecond}},
			stop:     []string{"a"},
			advances: []time.Duration{time.Second},
			want:     []string{"b@20ms"},
		},
		{
			name:     "no advance, nothing fires",
			arms:     []arm{{"a", time.Nanosecond}},
			advances: nil,
			want:     nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewManual(epoch)
			var r recorder
			timers := map[string]Timer{}
			for _, a := range tc.arms {
				timers[a.name] = m.AfterFunc(a.d, r.fn(m, a.name))
			}
			for _, name := range tc.stop {
				if !timers[name].Stop() {
					t.Fatalf("Stop(%s) before it fired = false", name)
				}
			}
			for _, d := range tc.advances {
				m.Advance(d)
			}
			if got := r.got(); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("fired %v, want %v", got, tc.want)
			}
		})
	}
}

// TestManualStopAfterFire: Stop on a timer that has fired reports false,
// and a second Stop too.
func TestManualStopAfterFire(t *testing.T) {
	m := NewManual(epoch)
	var r recorder
	tm := m.AfterFunc(time.Millisecond, r.fn(m, "a"))
	m.Advance(time.Millisecond)
	if tm.Stop() {
		t.Error("Stop after the timer fired = true")
	}
	if got := r.got(); len(got) != 1 {
		t.Errorf("fired %v, want once", got)
	}
}

// TestManualArmedInsideCallback: a timer a callback arms whose deadline
// falls within the same Advance fires in that Advance, in its place in the
// deadline order.
func TestManualArmedInsideCallback(t *testing.T) {
	cases := []struct {
		name  string
		inner time.Duration // armed by the callback at 10ms
		want  []string
	}{
		{"within the span, before a later timer", 5 * time.Millisecond, []string{"outer@10ms", "inner@15ms", "late@20ms"}},
		{"within the span, after a later timer", 15 * time.Millisecond, []string{"outer@10ms", "late@20ms", "inner@25ms"}},
		{"past the span", 50 * time.Millisecond, []string{"outer@10ms", "late@20ms"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewManual(epoch)
			var r recorder
			m.AfterFunc(10*time.Millisecond, func() {
				r.fn(m, "outer")()
				m.AfterFunc(tc.inner, r.fn(m, "inner"))
			})
			m.AfterFunc(20*time.Millisecond, r.fn(m, "late"))
			m.Advance(30 * time.Millisecond)
			if got := r.got(); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("fired %v, want %v", got, tc.want)
			}
			if now := m.Now().Sub(epoch); now != 30*time.Millisecond {
				t.Errorf("Now after Advance = %v, want 30ms", now)
			}
		})
	}
}

// TestManualZeroDelayFiresAtOnce: a timer armed for no time fires without
// an Advance, as time.AfterFunc's does.
func TestManualZeroDelayFiresAtOnce(t *testing.T) {
	m := NewManual(epoch)
	done := make(chan struct{})
	m.AfterFunc(0, func() { close(done) })
	<-done
}

// TestManualTicker: one tick per Advance that reaches a deadline, carrying
// the Advance's end; a large Advance drops the ticks it spans, and the next
// deadline is the first period boundary after it.
func TestManualTicker(t *testing.T) {
	cases := []struct {
		name     string
		advances []time.Duration
		want     []time.Duration // tick values, as offsets from epoch
	}{
		{"before the first deadline", []time.Duration{9 * time.Millisecond}, nil},
		{"one period at a time", []time.Duration{10 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond},
			[]time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}},
		{"a large advance ticks once, at its end", []time.Duration{95 * time.Millisecond}, []time.Duration{95 * time.Millisecond}},
		{"after a large advance the grid holds", []time.Duration{95 * time.Millisecond, 4 * time.Millisecond, time.Millisecond},
			[]time.Duration{95 * time.Millisecond, 100 * time.Millisecond}},
		{"an advance past a deadline ticks at its end", []time.Duration{13 * time.Millisecond, 13 * time.Millisecond},
			[]time.Duration{13 * time.Millisecond, 26 * time.Millisecond}},
	}
	// An unread tick is replaced by the next one: the reader sees the
	// latest time that fell due, never a stale one.
	t.Run("an unread tick is replaced by the next", func(t *testing.T) {
		m := NewManual(epoch)
		tk := m.NewTicker(10 * time.Millisecond)
		defer tk.Stop()
		m.Advance(10 * time.Millisecond)
		m.Advance(15 * time.Millisecond)
		if at := (<-tk.C).Sub(epoch); at != 25*time.Millisecond {
			t.Errorf("tick at %v, want 25ms", at)
		}
		select {
		case at := <-tk.C:
			t.Errorf("second tick at %v, want none", at.Sub(epoch))
		default:
		}
	})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewManual(epoch)
			tk := m.NewTicker(10 * time.Millisecond)
			defer tk.Stop()
			var got []time.Duration
			for _, d := range tc.advances {
				m.Advance(d)
				select {
				case at := <-tk.C:
					got = append(got, at.Sub(epoch))
				default:
				}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("ticks at %v, want %v", got, tc.want)
			}
		})
	}
}

// TestManualTickerStop: a stopped ticker sends nothing more.
func TestManualTickerStop(t *testing.T) {
	m := NewManual(epoch)
	tk := m.NewTicker(time.Millisecond)
	tk.Stop()
	m.Advance(time.Second)
	select {
	case <-tk.C:
		t.Error("tick after Stop")
	default:
	}
}

// TestManualWithTimeout: the context's deadline reads the manual clock,
// and it is done with DeadlineExceeded on the Advance that reaches it, not
// before; cancel first leaves Canceled.
func TestManualWithTimeout(t *testing.T) {
	cases := []struct {
		name      string
		parent    func(m *Manual) (context.Context, context.CancelFunc)
		d         time.Duration
		advance   time.Duration
		cancel    bool
		deadline  time.Duration
		wantErr   error
		wantCause error
	}{
		{"not yet", bg, 50 * time.Millisecond, 49 * time.Millisecond, false, 50 * time.Millisecond, nil, nil},
		{"reached", bg, 50 * time.Millisecond, 50 * time.Millisecond, false, 50 * time.Millisecond, context.DeadlineExceeded, context.DeadlineExceeded},
		{"cancelled first", bg, 50 * time.Millisecond, 0, true, 50 * time.Millisecond, context.Canceled, context.Canceled},
		{"cancel after expiry keeps the deadline error", bg, 50 * time.Millisecond, time.Second, true, 50 * time.Millisecond, context.DeadlineExceeded, context.DeadlineExceeded},
		{"non-positive is already over", bg, 0, 0, false, 0, context.DeadlineExceeded, context.DeadlineExceeded},
		{"an earlier parent deadline wins", func(m *Manual) (context.Context, context.CancelFunc) {
			return m.WithTimeout(context.Background(), 20*time.Millisecond)
		}, 50 * time.Millisecond, 20 * time.Millisecond, false, 20 * time.Millisecond, context.DeadlineExceeded, context.DeadlineExceeded},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewManual(epoch)
			parent, pcancel := tc.parent(m)
			defer pcancel()
			ctx, cancel := m.WithTimeout(parent, tc.d)
			defer cancel()
			if dl, ok := ctx.Deadline(); !ok || dl.Sub(epoch) != tc.deadline {
				t.Errorf("Deadline = %v, %v; want epoch+%v", dl.Sub(epoch), ok, tc.deadline)
			}
			m.Advance(tc.advance)
			if tc.cancel {
				cancel()
			}
			done := false
			select {
			case <-ctx.Done():
				done = true
			default:
			}
			if done != (tc.wantErr != nil) {
				t.Errorf("Done closed = %v, want %v", done, tc.wantErr != nil)
			}
			if err := ctx.Err(); !errors.Is(err, tc.wantErr) || (err == nil) != (tc.wantErr == nil) {
				t.Errorf("Err = %v, want %v", err, tc.wantErr)
			}
			if cause := context.Cause(ctx); cause != tc.wantCause {
				t.Errorf("Cause = %v, want %v", cause, tc.wantCause)
			}
		})
	}
}

func bg(*Manual) (context.Context, context.CancelFunc) {
	return context.WithCancel(context.Background())
}

// TestManualBlockUntil: BlockUntil returns once enough timers are armed by
// other goroutines, and counts a stopped or fired timer out again.
func TestManualBlockUntil(t *testing.T) {
	m := NewManual(epoch)
	m.BlockUntil(0)

	returned := make(chan struct{})
	go func() {
		m.BlockUntil(2)
		close(returned)
	}()
	m.AfterFunc(time.Millisecond, func() {})
	select {
	case <-returned:
		t.Fatal("BlockUntil(2) returned with one timer armed")
	default:
	}
	tk := m.NewTicker(time.Millisecond)
	<-returned

	m.Advance(time.Millisecond) // the timer fires, the ticker re-arms
	tk.Stop()
	again := make(chan struct{})
	go func() {
		m.BlockUntil(1)
		close(again)
	}()
	sleep := make(chan bool)
	go func() { sleep <- Sleep(context.Background(), m, time.Hour) }()
	<-again
	m.Advance(time.Hour)
	if !<-sleep {
		t.Error("Sleep reported an early end")
	}
}

// TestSleepEndsWithContext: Sleep gives up when its context ends, and its
// timer goes with it.
func TestSleepEndsWithContext(t *testing.T) {
	m := NewManual(epoch)
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan bool)
	go func() { res <- Sleep(ctx, m, time.Hour) }()
	m.BlockUntil(1)
	cancel()
	if <-res {
		t.Error("Sleep reported the full duration after its context ended")
	}
	// Nothing is left to fire: an Advance past the hour runs no callback.
	m.Advance(2 * time.Hour)
}
