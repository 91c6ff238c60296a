package rig

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"locsvc/bench/gen"
)

// Phase is what one measured phase observed.
type Phase struct {
	Dur time.Duration
	// Lat holds every successful op's latency in nanoseconds by class: in
	// a closed loop from the send, in a paced phase from the instant the
	// op was due. Lat[ClassNotify] times notifications from the due time
	// of the update that flipped the predicate.
	Lat [NumClasses][]int64
	// Late is how far behind its schedule the paced generator sent each
	// op (empty in closed loops).
	Late []int64
	// Attempted and Failed count ops; Failed includes errors, timeouts,
	// wrong answers and notification faults. Causes breaks Failed down
	// and Examples keeps the first few messages.
	Attempted, Failed int
	Causes            map[string]int
	Examples          []string
	// Recorded is the op sequence of a traced pass, for the layer replays.
	Recorded []gen.Op
}

// OpsPerSec is the rate of successful ops.
func (p *Phase) OpsPerSec() float64 {
	return float64(p.Attempted-p.Failed) / p.Dur.Seconds()
}

// fail counts one failed op under a cause.
func (p *Phase) fail(cause string, n int, example error) {
	if n == 0 {
		return
	}
	if p.Causes == nil {
		p.Causes = make(map[string]int)
	}
	p.Failed += n
	p.Causes[cause] += n
	if example != nil && len(p.Examples) < 5 {
		p.Examples = append(p.Examples, example.Error())
	}
}

func (p *Phase) record(f *inflight, now time.Time) {
	p.Attempted++
	switch {
	case f.err == nil:
		p.Lat[f.class] = append(p.Lat[f.class], int64(now.Sub(f.due)))
	case errors.Is(f.err, errWrong):
		p.fail("wrong_answer", 1, f.err)
	case errors.Is(f.err, context.DeadlineExceeded):
		p.fail("timeout", 1, f.err)
	default:
		p.fail("error", 1, f.err)
	}
}

func (p *Phase) merge(q *Phase) {
	for c := range p.Lat {
		p.Lat[c] = append(p.Lat[c], q.Lat[c]...)
	}
	p.Late = append(p.Late, q.Late...)
	p.Attempted += q.Attempted
	for cause, n := range q.Causes {
		p.fail(cause, n, nil)
	}
	for _, e := range q.Examples {
		if len(p.Examples) < 5 {
			p.Examples = append(p.Examples, e)
		}
	}
}

// yieldEvery is how long a waiting generator polls the clock between
// yields. Sleeping is useless below a millisecond on the reference VM (its
// timers fire about 1.1 ms late), so a generator spins until its op is due;
// it yields on this cadence so background goroutines (log writers, event
// dispatchers, GC workers) are not starved by the spin. Yielding on every
// iteration instead parks the generator in the scheduler's global queue for
// milliseconds at a time.
const yieldEvery = 20 * time.Microsecond

// waitUntil holds the generator until due and returns the time it stopped
// waiting.
func waitUntil(due time.Time) time.Time {
	lastYield := time.Now()
	for {
		now := time.Now()
		left := due.Sub(now)
		if left <= 0 {
			return now
		}
		if left > 3*time.Millisecond {
			time.Sleep(left - 2*time.Millisecond)
			lastYield = time.Now()
		} else if now.Sub(lastYield) >= yieldEvery {
			runtime.Gosched()
			lastYield = time.Now()
		}
	}
}

// drive runs one connection's generator for d. With interval > 0 it sends
// on a fixed schedule (open loop); otherwise each op follows the previous
// one's completion (closed loop). With window > 1 the connection keeps up
// to that many ops in flight and resolves them in order on a second
// goroutine, so a latency there ends when the op reaches the head of the
// line.
func (cn *conn) drive(s *gen.Stream, d, interval time.Duration, window int) Phase {
	var ph Phase
	// done takes an issued op: a blocking connection resolves it on the
	// spot, a pipelined one hands it to the collector goroutine. The
	// window is the channel's capacity plus the op the collector holds.
	done := func(f inflight) {
		f.resolve()
		ph.record(&f, time.Now())
	}
	finish := func() {}
	if window > 1 {
		inflights := make(chan inflight, window-1)
		var wg sync.WaitGroup
		wg.Add(1)
		collect := done
		go func() {
			defer wg.Done()
			for f := range inflights {
				collect(f)
			}
		}()
		done = func(f inflight) { inflights <- f }
		finish = func() {
			close(inflights)
			wg.Wait()
		}
	}

	ctx := context.Background()
	start := time.Now()
	end := start.Add(d)
	var op gen.Op
	var late []int64
	for k := 0; ; k++ {
		now := time.Now()
		due := now
		if interval > 0 {
			due = start.Add(time.Duration(k) * interval)
			if !due.Before(end) {
				break
			}
			now = waitUntil(due)
			late = append(late, int64(now.Sub(due)))
		} else if !now.Before(end) {
			break
		}
		s.Next(&op)
		done(cn.issue(ctx, &op, due))
	}
	finish()
	ph.Late = late
	ph.Dur = time.Since(start)
	return ph
}

// Run drives the first n connections for d, closed loop (rate 0) or paced
// at rate ops per second in total, each keeping up to window ops in flight,
// then settles outstanding notifications.
func (w *World) Run(streams []*gen.Stream, n int, d time.Duration, rate float64, window int) Phase {
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(n) / rate * float64(time.Second))
	}
	parts := make([]Phase, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i] = w.conns[i].drive(streams[i], d, interval, window)
		}(i)
	}
	wg.Wait()
	total := Phase{Dur: time.Since(start)}
	for i := range parts {
		total.merge(&parts[i])
	}
	w.settle(&total)
	return total
}

// settle folds the phase's notifications into it: their latencies, and as
// failures every notification that was missing, unexpected or carried the
// wrong state.
func (w *World) settle(p *Phase) {
	lat, unexpected, wrongFired, missing := w.settleNotifications(3 * time.Second)
	p.Lat[ClassNotify] = lat
	p.fail("notify_missing", missing, nil)
	p.fail("notify_unexpected", unexpected, nil)
	p.fail("notify_wrong_state", wrongFired, nil)
}

// RunTraced drives connection 0 alone, closed loop, for d with span
// recording on: each op is opened in the tracenet, resolved, and followed
// by a wait for the network to fall quiet, so every span recorded in
// between is the op's. It returns the phase (with the op sequence recorded
// for the replays) and how many ops the network did not fall quiet after.
func (w *World) RunTraced(s *gen.Stream, d time.Duration) (Phase, int) {
	var ph Phase
	cn := w.conns[0]
	tn := w.trace
	ctx := context.Background()
	unquiet := 0
	tn.Enable()
	start := time.Now()
	end := start.Add(d)
	var op gen.Op
	for time.Now().Before(end) {
		s.Next(&op)
		if len(ph.Recorded) < maxRecorded {
			ph.Recorded = append(ph.Recorded, op)
		}
		id, t0 := tn.BeginOp()
		now := time.Now()
		f := cn.issue(ctx, &op, now)
		f.resolve()
		tn.EndOp(id, uint8(f.class), cn.c.ID(), t0)
		ph.record(&f, time.Now())
		if !tn.Quiesce(20 * time.Millisecond) {
			unquiet++
		}
	}
	ph.Dur = time.Since(start)
	tn.Disable()
	w.settle(&ph)
	return ph, unquiet
}

// maxRecorded bounds the op sequence kept for the replays.
const maxRecorded = 200_000

// Percentile returns the p-quantile (0..1) of ns in milliseconds, 0 when
// empty. It sorts ns in place.
func Percentile(ns []int64, p float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	i := int(p * float64(len(ns)))
	if i >= len(ns) {
		i = len(ns) - 1
	}
	return float64(ns[i]) / 1e6
}

// VerifyTierActivity checks that the measured phases spanned enough
// flushes and compactions per shard for the tier metrics to mean anything.
func (w *World) VerifyTierActivity(d TierCounts) error {
	shards := w.cfg.Leaves() * w.cfg.Shards
	fl := float64(d.Flushes) / float64(shards)
	co := float64(d.Compactions) / float64(shards)
	if fl < float64(w.cfg.MinFlushes) || co < float64(w.cfg.MinCompactions) {
		return fmt.Errorf("rig: phases spanned %.1f flushes and %.1f compactions per shard, need %d and %d",
			fl, co, w.cfg.MinFlushes, w.cfg.MinCompactions)
	}
	return nil
}
