package transport

import "sync"

// The handler executor. Every handler of both transports — and the
// server's notification drains, through Go — runs on one process-wide set of
// worker goroutines that park between tasks instead of exiting. A goroutine
// started by a go statement begins on a 2 KB stack and a handler re-grows
// it two or three times on its way into the store, the WAL encoder and the
// visitorDB; copying stacks was a fifth of a leaf's CPU. A parked worker
// keeps the stack its last task grew, so the next handler runs without a
// single copy. (The collector halves the stack of a goroutine it finds
// using under a quarter of it, so a worker that idles through collections
// re-grows once when it is next used — once per collection, not per
// envelope.)
//
// The set is elastic and never capped: a handler may block in a nested
// Call whose reply only another handler can produce, so when no worker is
// parked the task starts a new one; it is never queued behind busy workers.
// Idle workers park on a stack, most recently parked on top, which keeps
// the working set of warm stacks as small as the concurrency of the moment;
// a worker that finishes while maxParkedWorkers are already parked retires.
// The executor keeps no account of running tasks: whoever submits one
// tracks it — a node's request handlers in its network's link (Inproc.wg,
// a UDP node's handlerWG), the server's drains in its WaitGroup — and
// that owner's Close waits for it. Parked workers hold no task and belong
// to no network, so a Close leaves them parked for the next one.

// maxParkedWorkers bounds the idle workers kept parked, and with them the
// goroutines and grown stacks (≈ 8–32 KB each) an idle process retains:
// comfortably above the handler concurrency of a busy deployment (a few
// dozen), so the steady state never retires a warm worker, and small
// enough that the retained stacks stay within a few megabytes.
const maxParkedWorkers = 128

type executor struct {
	mu sync.Mutex
	// parked holds the idle workers' task slots, most recently parked
	// last.
	parked []chan func()
}

// handlers is the process-wide executor. Like a sync.Pool it carries no
// state from one task to the next beyond the warmed resource itself.
var handlers executor

// Go runs fn on the handler executor: concurrently with the caller, like a
// go statement, but on a worker whose stack earlier tasks already grew.
// The caller accounts for fn's completion itself.
func Go(fn func()) { handlers.run(fn) }

// run hands fn to the most recently parked worker, or starts a worker when
// none is parked.
func (e *executor) run(fn func()) {
	e.mu.Lock()
	n := len(e.parked)
	if n == 0 {
		e.mu.Unlock()
		go e.work(fn)
		return
	}
	slot := e.parked[n-1]
	e.parked = e.parked[:n-1]
	e.mu.Unlock()
	slot <- fn
}

// work is one worker: it runs its task, parks for the next, and retires
// when enough workers are parked already.
func (e *executor) work(fn func()) {
	// Buffered, so run never waits for this worker to reach its receive.
	slot := make(chan func(), 1)
	for {
		fn()
		e.mu.Lock()
		if len(e.parked) >= maxParkedWorkers {
			e.mu.Unlock()
			return
		}
		e.parked = append(e.parked, slot)
		e.mu.Unlock()
		fn = <-slot
	}
}
