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
// The pipeline only puts. Soft-state expiry is not its job: the janitor's
// Expired scan is the one expiry detector (see server.Options.SightingTTL).
type UpdatePipeline struct {
	db       SightingStore
	onCommit func([]Delta)

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
	done chan struct{}
}

// PipelineOption customizes an UpdatePipeline.
type PipelineOption func(*UpdatePipeline)

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
func (p *UpdatePipeline) Put(s core.Sighting) {
	p.ops.Add(1)
	lane := &p.lanes[spatial.ShardFor(s.OID, len(p.lanes))]
	lane.mu.Lock()
	if lane.leading {
		// A leader is committing: enqueue and wait for it to apply us.
		p.handoffs.Add(1)
		done := make(chan struct{})
		lane.pending = append(lane.pending, pendingUpdate{s: s, done: done})
		lane.mu.Unlock()
		<-done
		return
	}
	lane.leading = true
	lane.mu.Unlock()

	// Leader: commit own update, then drain whatever queued up meanwhile,
	// batch by batch, until the lane is empty.
	batch := []core.Sighting{s}
	var dones []chan struct{}
	for {
		var deltas []Delta // nil: none wanted
		if p.onCommit != nil {
			deltas = make([]Delta, 0, len(batch))
		}
		deltas = p.db.PutBatch(batch, deltas)
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
			return
		}
		queued := lane.pending
		lane.pending = nil
		lane.mu.Unlock()
		batch, dones = batch[:0], dones[:0]
		for _, pu := range queued {
			batch = append(batch, pu.s)
			dones = append(dones, pu.done)
		}
	}
}
