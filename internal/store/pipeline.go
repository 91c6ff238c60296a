package store

import (
	"sync"
	"sync/atomic"

	"locsvc/internal/core"
	"locsvc/internal/spatial"
)

// UpdatePipeline batches concurrent position updates per shard before they
// hit the sighting store — the group-commit pattern applied to the paper's
// update-heavy workload. Each shard has a combining lane: the first updater
// to arrive becomes the lane leader and applies its own update immediately;
// updates arriving while the leader is inside PutBatch queue up and are
// applied as one batch under a single shard-lock acquisition when the
// leader comes back around. Under low concurrency the pipeline degenerates
// to a plain Put (one extra uncontended mutex); under high concurrency a
// K-deep queue costs one lock acquisition instead of K, and superseded
// updates to the same object are coalesced away by the store's PutBatch.
// Each update queued behind a lane leader bumps the handoff counter, which
// diagnostics export beside the store's shard-lock contention samples.
//
// The pipeline also amortizes janitor work: after committing a batch, the
// leader sweeps a bounded number of records for soft-state expiry and hands
// any expired ids to the OnExpired callback, so expiry detection rides the
// update path instead of relying solely on the periodic full scan.
type UpdatePipeline struct {
	db        SightingStore
	onExpired func([]core.OID)
	onCommit  func([]Delta)

	// lanes has one combining lane per store shard.
	lanes []updateLane

	// ops counts updates routed through the pipeline, handoffs the subset
	// that queued behind a lane leader (combining happened — the lock was
	// busy). Cumulative.
	ops      atomic.Int64
	handoffs atomic.Int64
}

type updateLane struct {
	mu      sync.Mutex
	pending []pendingUpdate
	leading bool
}

type pendingUpdate struct {
	s    core.Sighting
	acc  float64
	done chan struct{}
}

// PipelineOption customizes an UpdatePipeline.
type PipelineOption func(*UpdatePipeline)

// OnExpired installs a callback receiving ids found expired during the
// amortized post-batch sweep. The callback runs on an updater's goroutine
// with no store locks held; it must tolerate ids that a concurrent update
// has refreshed since the sweep (like the janitor's Expired snapshot, the
// sweep is a point-in-time observation).
func OnExpired(fn func([]core.OID)) PipelineOption {
	return func(p *UpdatePipeline) { p.onExpired = fn }
}

// OnCommit installs a callback receiving the change deltas of every batch
// the pipeline commits. The callback runs on the lane leader's goroutine
// while it still holds lane leadership and before any update of the batch
// returns, so for any one object the callbacks observe deltas in commit
// order, ahead of anything the updater does next; it owns the slice it is
// handed. A slow callback stalls its lane and the batch's updaters —
// consumers that can fall behind must hand off to their own queue (the
// server's event dispatcher does).
func OnCommit(fn func([]Delta)) PipelineOption {
	return func(p *UpdatePipeline) { p.onCommit = fn }
}

// NewUpdatePipeline builds a pipeline over db with one combining lane per
// shard.
func NewUpdatePipeline(db SightingStore, opts ...PipelineOption) *UpdatePipeline {
	p := &UpdatePipeline{db: db, lanes: make([]updateLane, db.NumShards())}
	for _, opt := range opts {
		opt(p)
	}
	return p
}

// Stats returns the cumulative number of updates routed through the
// pipeline and how many of them queued behind a lane leader.
func (p *UpdatePipeline) Stats() (ops, handoffs int64) {
	return p.ops.Load(), p.handoffs.Load()
}

// Put routes s through its shard's combining lane and returns once the
// update is committed to the store. It is safe for concurrent use.
func (p *UpdatePipeline) Put(s core.Sighting) { p.PutAcc(s, AccUnknown) }

// PutAcc is Put for a caller that knows the object's offered accuracy: acc
// is recorded on the index entry the update installs (see
// SightingStore.PutBatchAcc).
func (p *UpdatePipeline) PutAcc(s core.Sighting, acc float64) {
	p.ops.Add(1)
	lane := &p.lanes[spatial.ShardFor(s.OID, len(p.lanes))]
	lane.mu.Lock()
	if lane.leading {
		// A leader is committing: enqueue and wait for it to apply us.
		p.handoffs.Add(1)
		done := make(chan struct{})
		lane.pending = append(lane.pending, pendingUpdate{s: s, acc: acc, done: done})
		lane.mu.Unlock()
		<-done
		return
	}
	lane.leading = true
	lane.mu.Unlock()

	// Leader: commit own update, then drain whatever queued up meanwhile,
	// batch by batch, until the lane is empty.
	// The leader's own update and its accuracy share one allocation.
	own := &struct {
		s   [1]core.Sighting
		acc [1]float64
	}{[1]core.Sighting{s}, [1]float64{acc}}
	batch, accs := own.s[:], own.acc[:]
	var dones []chan struct{}
	applied := 0
	for {
		var deltas []Delta // nil: none wanted
		if p.onCommit != nil {
			deltas = make([]Delta, 0, len(batch))
		}
		deltas = p.db.PutBatchAcc(batch, accs, deltas)
		applied += len(batch)
		if p.onCommit != nil {
			p.onCommit(deltas)
		}
		for _, d := range dones {
			close(d)
		}
		lane.mu.Lock()
		if len(lane.pending) == 0 {
			lane.leading = false
			lane.mu.Unlock()
			break
		}
		queued := lane.pending
		lane.pending = nil
		lane.mu.Unlock()
		batch, accs, dones = batch[:0], accs[:0], dones[:0]
		for _, pu := range queued {
			batch = append(batch, pu.s)
			accs = append(accs, pu.acc)
			dones = append(dones, pu.done)
		}
	}
	// Sweep only after giving up leadership: the OnExpired callback can
	// be expensive (path teardown, event re-evaluation), and updates
	// queueing behind the lane must not wait on it.
	p.sweep(applied)
}

// sweep runs the amortized expiry scan after a leadership stint: the
// budget scales with the number of updates committed so sweep cost stays a
// constant fraction of update work.
func (p *UpdatePipeline) sweep(applied int) {
	if p.onExpired == nil || applied <= 0 {
		return
	}
	if ids := p.db.SweepExpired(2 * applied); len(ids) > 0 {
		p.onExpired(ids)
	}
}
