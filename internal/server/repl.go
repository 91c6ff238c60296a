package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"locsvc/internal/clock"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
	"locsvc/internal/store"
	"locsvc/internal/transport"
)

// This file is the server half of hot-standby leaf replication. A leaf
// configured with Options.ReplPeer runs as one of a primary/standby pair:
//
//   - The primary's committed writes are observed through the sighting
//     WAL's tee in each shard's drain order — sighting puts and removes,
//     and the registration changes the store makes under the same shard
//     lock, which ride the shard's queue in memory only — and shipped to
//     the standby as seq-numbered, batched ReplAppend calls, one stream per
//     shard, so per-shard apply order is preserved without a global
//     sequencer. A shard snapshot carries the shard's registrations.
//   - Tier-structure changes (flush, compaction) replicate as ReplRuns
//     records; the standby fetches any run file it lacks in chunks
//     (RunFetch) and installs the list through the same atomic manifest
//     swap the primary used. Bootstrap and gap healing are a ReplSnapshot
//     record: runs are bulk-fetched, the memtable state travels in the
//     record, and nothing is replayed.
//   - The parent health-checks the primary (Options.Replicas) and on
//     sustained failure promotes the standby (Promote), rebinds its child
//     record and rewrites its forwarding references. Promotion increments
//     the fencing epoch: a zombie primary's late appends carry the old
//     epoch, are answered Fenced, and the zombie demotes itself to
//     standby, catching up from the new primary's runs and WAL tail.
//
// What failover can lose: only the unacknowledged WAL tail — records the
// old primary committed locally but had not yet shipped (or had shipped
// without receiving the ack). Clients recover those through their own
// Seq-stamped retries; the promoted standby's reply dedupe window starts
// empty, so a retry straddling the failover is applied again rather than
// answered from memory — which is safe, because updates are idempotent
// per (OID, T) and a re-applied registration installs the same
// registration and sighting again. Queries between promotion and the next
// client update may see the object's last replicated position instead of
// its very latest.

// Replication roles.
const (
	replRolePrimary = "primary"
	replRoleStandby = "standby"
)

const (
	// replBatchMax bounds the records of one ReplAppend.
	replBatchMax = 256
	// replQueueCap bounds one stream's pending queue. Overflow (standby
	// down or far behind) drops the queue and schedules a snapshot — the
	// bounded-memory alternative to buffering an unbounded tail.
	replQueueCap = 8192
	// replSendIdle is the sender's pause after a failed append before it
	// tries again; peer-down periods burn one retry budget per pause.
	replSendIdle = 200 * time.Millisecond
	// replMarkerOp tags an in-queue snapshot placeholder. It never goes
	// on the wire: the sender substitutes the snapshot payload at the
	// marker's stream position before sending.
	replMarkerOp msg.ReplOp = 255
)

// replState is one leaf's half of a primary/standby pair.
type replState struct {
	s    *Server
	peer msg.NodeID
	// sdb is the leaf's sharded sighting store (replication requires it).
	sdb *store.ShardedSightingDB

	primary atomic.Bool
	epoch   atomic.Uint64
	tokens  atomic.Uint64 // snapshot marker tokens

	// streams holds one sender stream per sighting shard.
	streams []*replStream

	// Receiver side: per-stream apply serialization and the next expected
	// sequence number.
	recvMu   []sync.Mutex
	recvNext []uint64

	// Counters surfaced through DiagRes.Repl and the metrics gauges.
	acked         atomic.Int64
	fenced        atomic.Int64
	runsInstalled atomic.Int64
	resyncs       atomic.Int64
}

// replStream is the sender state of one replication stream. recs[i] has
// sequence number firstSeq+i; acknowledged prefixes are dropped.
type replStream struct {
	id   int
	mu   sync.Mutex
	cond *sync.Cond

	recs     []msg.ReplRecord
	firstSeq uint64

	// needSync schedules a snapshot before the next send (bootstrap, gap
	// NACK, queue overflow, promotion). syncTok, when non-zero, is the WAL
	// marker the sender is waiting to surface in the queue; snapRec is the
	// snapshot payload to substitute at the marker's position.
	needSync bool
	syncTok  uint64
	snapRec  *msg.ReplRecord
}

func newReplState(s *Server, peer msg.NodeID, sdb *store.ShardedSightingDB, standby bool) *replState {
	n := sdb.NumShards()
	r := &replState{
		s:        s,
		peer:     peer,
		sdb:      sdb,
		streams:  make([]*replStream, n),
		recvMu:   make([]sync.Mutex, n),
		recvNext: make([]uint64, n),
	}
	for i := range r.streams {
		st := &replStream{id: i, firstSeq: 1}
		st.cond = sync.NewCond(&st.mu)
		r.streams[i] = st
	}
	for i := range r.recvNext {
		r.recvNext[i] = 1
	}
	r.epoch.Store(1)
	if !standby {
		r.primary.Store(true)
		// A fresh primary cannot know what the standby has: every stream
		// starts with a snapshot and lets seq numbering take over from
		// there.
		for _, st := range r.streams {
			st.needSync = true
		}
	}
	return r
}

func (r *replState) role() string {
	if r.primary.Load() {
		return replRolePrimary
	}
	return replRoleStandby
}

// pendingTotal sums the streams' unacknowledged queue lengths — the
// replication lag, in records.
func (r *replState) pendingTotal() int64 {
	var n int64
	for _, st := range r.streams {
		st.mu.Lock()
		n += int64(len(st.recs))
		st.mu.Unlock()
	}
	return n
}

// TeeRecord implements store.ReplTee: the primary's committed records
// enter their shard's stream here, on the WAL writer's goroutine — enqueue
// only, never block.
func (r *replState) TeeRecord(shard int, rec store.WALRecord) {
	if !r.primary.Load() {
		return
	}
	out := msg.ReplRecord{Op: msg.ReplSightingRemove, OID: rec.OID}
	switch rec.Op {
	case store.WALSightingBatch:
		// The WAL writer recycles its batch slices; the queue needs its own.
		out = msg.ReplRecord{Op: msg.ReplSightingPut, Sightings: append([]core.Sighting(nil), rec.Sightings...)}
	case store.WALPut:
		v := rec.Visitor
		out = msg.ReplRecord{Op: msg.ReplVisitorPut, Visitor: msg.VisitorState{OID: v.OID, OfferedAcc: v.OfferedAcc, RegInfo: v.RegInfo, PathT: v.PathT}}
	case store.WALRemove:
		out = msg.ReplRecord{Op: msg.ReplVisitorRemove, OID: rec.Visitor.OID}
	case store.WALMark:
		out = msg.ReplRecord{Op: replMarkerOp, NextSeq: rec.Token}
	}
	r.streams[shard].enqueue(out)
}

// notifyRuns is the store's tier-change notifier (flush, compaction).
// Runs under the shard's write lock, after the flushed records' tee — see
// store/repl.go for the ordering proof.
func (r *replState) notifyRuns(shard int, runs []string, nextSeq uint64, clearMem bool) {
	if !r.primary.Load() {
		return
	}
	r.streams[shard].enqueue(msg.ReplRecord{Op: msg.ReplRuns, Runs: runs, NextSeq: nextSeq, ClearMem: clearMem})
}

// regState is a registration's wire form.
func regState(id core.OID, reg store.Registration) msg.VisitorState {
	return msg.VisitorState{OID: id, OfferedAcc: reg.OfferedAcc, RegInfo: reg.RegInfo, PathT: reg.PathT}
}

// registration is the registration a wire record describes.
func registration(st msg.VisitorState) store.Registration {
	return store.Registration{RegInfo: st.RegInfo, OfferedAcc: st.OfferedAcc, PathT: st.PathT}
}

// enqueue appends rec to the stream. On overflow the whole queue is
// dropped and a snapshot scheduled: the standby is too far behind for the
// tail to be worth its memory, and the snapshot it will receive includes
// every dropped record's effect (they were applied to the store before
// being teed).
func (st *replStream) enqueue(rec msg.ReplRecord) {
	st.mu.Lock()
	if len(st.recs) >= replQueueCap {
		st.firstSeq += uint64(len(st.recs))
		st.recs = st.recs[:0]
		st.needSync = true
		st.syncTok = 0
		st.snapRec = nil
	}
	st.recs = append(st.recs, rec)
	st.cond.Broadcast()
	st.mu.Unlock()
}

// clear empties the stream (demotion, promotion reset).
func (st *replStream) clear(needSync bool) {
	st.mu.Lock()
	st.firstSeq += uint64(len(st.recs))
	st.recs = st.recs[:0]
	st.needSync = needSync
	st.syncTok = 0
	st.snapRec = nil
	st.cond.Broadcast()
	st.mu.Unlock()
}

// ackUpTo drops the acknowledged prefix and reports how many records that
// released.
func (st *replStream) ackUpTo(next uint64) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if next <= st.firstSeq {
		return 0
	}
	n := int(next - st.firstSeq)
	if n > len(st.recs) {
		n = len(st.recs)
	}
	st.recs = append(st.recs[:0], st.recs[n:]...)
	st.firstSeq += uint64(n)
	return n
}

// ---------------------------------------------------------------------------
// Sender side.

// sender drains one stream toward the peer for the server's lifetime. As
// a standby it idles (tees drop, queues stay empty); promotion wakes it.
func (r *replState) sender(st *replStream) {
	defer r.s.wg.Done()
	for {
		st.mu.Lock()
		for !r.sendable(st) {
			if r.stopping() {
				st.mu.Unlock()
				return
			}
			st.cond.Wait()
		}
		needSync := st.needSync
		st.needSync = false
		st.mu.Unlock()
		if r.stopping() {
			return
		}
		if needSync {
			if err := r.startSync(st); err != nil {
				// WAL down; try again after a pause rather than spin.
				st.mu.Lock()
				st.needSync = true
				st.mu.Unlock()
				r.pause()
				continue
			}
		}
		batch, first, ok := r.popBatch(st)
		if !ok {
			continue // waiting on the snapshot marker
		}
		r.send(st, batch, first)
	}
}

// sendable reports whether the sender has work. Caller holds st.mu.
func (r *replState) sendable(st *replStream) bool {
	if !r.primary.Load() {
		// Demoted with records still queued: drop them, they belong to a
		// fenced epoch.
		if len(st.recs) > 0 || st.needSync || st.syncTok != 0 {
			st.firstSeq += uint64(len(st.recs))
			st.recs = st.recs[:0]
			st.needSync = false
			st.syncTok = 0
			st.snapRec = nil
		}
		return false
	}
	return st.needSync || len(st.recs) > 0 || st.syncTok != 0
}

// stopping reports server shutdown.
func (r *replState) stopping() bool { return r.s.ctx.Err() != nil }

// pause sleeps one send-idle period or until shutdown.
func (r *replState) pause() {
	clock.Sleep(r.s.ctx, r.s.clk, replSendIdle)
}

// startSync captures a snapshot of st's shard. The store enqueues a WAL
// marker with it; the marker surfaces through TeeRecord at the snapshot's
// position in the drain order, and popBatch substitutes the payload there.
func (r *replState) startSync(st *replStream) error {
	// A tiered primary may still be replaying its WAL tail in the
	// background; a snapshot taken before the shard is warm would miss
	// the tail for good (recovery rebuilds the memtable without teeing).
	if err := r.sdb.WaitRecovered(); err != nil {
		return err
	}
	tok := r.tokens.Add(1)
	st.mu.Lock()
	st.syncTok = tok
	st.snapRec = nil
	st.mu.Unlock()
	state, err := r.sdb.ReplSnapshot(st.id, tok)
	if err != nil {
		st.mu.Lock()
		st.syncTok = 0
		st.mu.Unlock()
		return err
	}
	rec := msg.ReplRecord{
		Op:        msg.ReplSnapshot,
		Sightings: state.Live,
		Dead:      state.Dead,
		Visitors:  make([]msg.VisitorState, 0, len(state.Regs)),
		Runs:      state.Runs,
		NextSeq:   state.NextSeq,
	}
	for id, reg := range state.Regs {
		rec.Visitors = append(rec.Visitors, regState(id, reg))
	}
	st.mu.Lock()
	if st.syncTok == tok { // not cancelled by an overflow meanwhile
		st.snapRec = &rec
		st.cond.Broadcast()
	}
	st.mu.Unlock()
	return nil
}

// popBatch copies up to replBatchMax records off the stream head without
// consuming them (they are dropped on ack). While a snapshot marker is
// awaited, everything before it is discarded — the snapshot covers it —
// and nothing is sent until the marker has surfaced.
func (r *replState) popBatch(st *replStream) ([]msg.ReplRecord, uint64, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.syncTok != 0 {
		idx := -1
		for i, rec := range st.recs {
			if rec.Op == replMarkerOp && rec.NextSeq == st.syncTok {
				idx = i
				break
			}
		}
		if idx < 0 || st.snapRec == nil {
			return nil, 0, false // marker still in the WAL drain
		}
		st.recs = append(st.recs[:0], st.recs[idx:]...)
		st.firstSeq += uint64(idx)
		st.recs[0] = *st.snapRec
		st.syncTok = 0
		st.snapRec = nil
	}
	n := len(st.recs)
	if n == 0 {
		return nil, 0, false
	}
	if n > replBatchMax {
		n = replBatchMax
	}
	batch := make([]msg.ReplRecord, n)
	for i := 0; i < n; i++ {
		if st.recs[i].Op == replMarkerOp {
			// A stale marker from a cancelled sync: nothing will
			// substitute it, so splice it out and cut the batch here.
			copy(st.recs[i:], st.recs[i+1:])
			st.recs = st.recs[:len(st.recs)-1]
			batch = batch[:i]
			break
		}
		batch[i] = st.recs[i]
	}
	if len(batch) == 0 {
		return nil, 0, false
	}
	return batch, st.firstSeq, true
}

// send ships one batch and applies the ack. Failures leave the batch
// queued; the next round retries it (the receiver skips the duplicate
// prefix by seq).
func (r *replState) send(st *replStream, batch []msg.ReplRecord, first uint64) {
	s := r.s
	pol := transport.RetryPolicy{
		MaxAttempts:   3,
		BaseBackoff:   20 * time.Millisecond,
		MaxBackoff:    replSendIdle,
		PerTryTimeout: s.opts.CallTimeout,
	}
	m := msg.ReplAppend{Epoch: r.epoch.Load(), Stream: st.id, FirstSeq: first, Recs: batch}
	res, err := transport.CallWithRetry(s.ctx, s.node, func() msg.NodeID { return r.peer }, m, pol)
	if err != nil {
		s.met.Counter("repl_send_errors").Inc()
		r.pause()
		return
	}
	ack, ok := res.(msg.ReplAck)
	if !ok {
		s.met.Counter("repl_send_errors").Inc()
		r.pause()
		return
	}
	if ack.Fenced || ack.Epoch > r.epoch.Load() {
		// The peer has been promoted past us: we are the zombie. Demote
		// and let its streams resync us.
		r.demoteTo(ack.Epoch)
		return
	}
	if ack.NeedSync {
		st.mu.Lock()
		st.needSync = true
		st.mu.Unlock()
		return
	}
	if n := st.ackUpTo(ack.NextSeq); n > 0 {
		r.acked.Add(int64(n))
	}
}

// ---------------------------------------------------------------------------
// Role transitions.

// demoteTo adopts epoch (if higher) and steps down to standby: the store
// stops restructuring its tiers, the queues are dropped (their records
// belong to the fenced epoch) and the tees go quiet.
func (r *replState) demoteTo(epoch uint64) {
	for {
		cur := r.epoch.Load()
		if epoch <= cur || r.epoch.CompareAndSwap(cur, epoch) {
			break
		}
	}
	if !r.primary.CompareAndSwap(true, false) {
		return
	}
	r.sdb.SetReplStandby(true)
	for _, st := range r.streams {
		st.clear(false)
	}
	r.s.met.Counter("repl_demotions").Inc()
}

// promote steps up to primary with a fencing epoch strictly above both
// the current one and floor. Idempotent: an already-primary node just
// reports its epoch, so the parent's promotion retry is safe.
func (r *replState) promote(floor uint64) uint64 {
	if r.primary.Load() {
		return r.epoch.Load()
	}
	for {
		cur := r.epoch.Load()
		next := cur + 1
		if floor > next {
			next = floor
		}
		if r.epoch.CompareAndSwap(cur, next) {
			break
		}
	}
	r.sdb.SetReplStandby(false)
	// The old primary's standby state is unknown territory once it comes
	// back: start every stream with a snapshot.
	for _, st := range r.streams {
		st.clear(true)
	}
	r.primary.Store(true)
	for _, st := range r.streams {
		st.mu.Lock()
		st.cond.Broadcast()
		st.mu.Unlock()
	}
	r.s.met.Counter("repl_promotions").Inc()
	return r.epoch.Load()
}

// wake unblocks every sender (shutdown).
func (r *replState) wake() {
	for _, st := range r.streams {
		st.mu.Lock()
		st.cond.Broadcast()
		st.mu.Unlock()
	}
}

// ---------------------------------------------------------------------------
// Receiver side.

// handleReplAppend applies one batch from the peer. The epoch fence runs
// first: stale epochs are rejected (Fenced) so a zombie primary cannot
// overwrite post-promotion state, and a higher epoch demotes this node if
// it thought it was primary.
func (s *Server) handleReplAppend(req msg.ReplAppend) (msg.Message, error) {
	r := s.repl
	if r == nil {
		return nil, fmt.Errorf("%w: server %s has no replication peer", core.ErrBadRequest, s.cfg.ID)
	}
	// Applies write through the WAL and the tier manifests, which Close
	// tears down after draining s.wg — so an apply must hold a slot for
	// its whole run (the same guard as the notifier's drains) or not start at all.
	if !s.beginBackground() {
		return nil, core.ErrUnavailable
	}
	defer s.wg.Done()
	if req.Stream < 0 || req.Stream >= len(r.streams) {
		return nil, fmt.Errorf("%w: replication stream %d out of range", core.ErrBadRequest, req.Stream)
	}
	for {
		cur := r.epoch.Load()
		if req.Epoch < cur {
			r.fenced.Add(1)
			s.met.Counter("repl_fenced_appends").Inc()
			return msg.ReplAck{Epoch: cur, Stream: req.Stream, Fenced: true}, nil
		}
		if req.Epoch == cur {
			break
		}
		r.demoteTo(req.Epoch)
	}
	if r.primary.Load() {
		// Equal epochs, both sides primary: refuse — there is one writer
		// per epoch, and it is not this peer.
		r.fenced.Add(1)
		s.met.Counter("repl_fenced_appends").Inc()
		return msg.ReplAck{Epoch: r.epoch.Load(), Stream: req.Stream, Fenced: true}, nil
	}

	r.recvMu[req.Stream].Lock()
	defer r.recvMu[req.Stream].Unlock()
	next := r.recvNext[req.Stream]
	start := -1
	switch {
	case len(req.Recs) == 0:
		return msg.ReplAck{Epoch: r.epoch.Load(), Stream: req.Stream, NextSeq: next}, nil
	case req.FirstSeq+uint64(len(req.Recs)) <= next:
		// Full duplicate (retry of an acked batch): re-ack.
		return msg.ReplAck{Epoch: r.epoch.Load(), Stream: req.Stream, NextSeq: next}, nil
	case req.FirstSeq <= next:
		start = int(next - req.FirstSeq)
	default:
		// Gap. A snapshot anywhere in the batch is a reset point — state
		// before it is irrelevant; without one, ask for a sync.
		for i, rec := range req.Recs {
			if rec.Op == msg.ReplSnapshot {
				start = i
				break
			}
		}
		if start < 0 {
			return msg.ReplAck{Epoch: r.epoch.Load(), Stream: req.Stream, NextSeq: next, NeedSync: true}, nil
		}
	}
	for i := start; i < len(req.Recs); i++ {
		if err := r.apply(req.Stream, req.Recs[i]); err != nil {
			// Partial apply: persist the cursor past what landed so the
			// sender's retry skips it, and surface the failure.
			r.recvNext[req.Stream] = req.FirstSeq + uint64(i)
			s.met.Counter("repl_apply_errors").Inc()
			return nil, err
		}
	}
	r.recvNext[req.Stream] = req.FirstSeq + uint64(len(req.Recs))
	return msg.ReplAck{Epoch: r.epoch.Load(), Stream: req.Stream, NextSeq: r.recvNext[req.Stream]}, nil
}

// apply lands one stream record through the normal store paths, so the
// standby's own WAL and tier bookkeeping come for free.
func (r *replState) apply(stream int, rec msg.ReplRecord) error {
	s := r.s
	switch rec.Op {
	case msg.ReplSightingPut:
		s.sightings.PutBatch(rec.Sightings, nil)
	case msg.ReplSightingRemove, msg.ReplVisitorRemove:
		// The primary removes a sighting and its registration together;
		// whichever record comes first removes both here.
		if _, _, _, err := s.sightings.Deregister(rec.OID, false); err != nil {
			return err
		}
	case msg.ReplVisitorPut:
		if err := s.sightings.PutRegistration(rec.Visitor.OID, registration(rec.Visitor)); err != nil {
			return err
		}
	case msg.ReplRuns:
		if err := r.sdb.ReplInstallRuns(stream, rec.Runs, rec.NextSeq, rec.ClearMem, r.fetchRun(stream)); err != nil {
			return err
		}
	case msg.ReplSnapshot:
		state := store.ReplShardState{
			Live:    rec.Sightings,
			Dead:    rec.Dead,
			Regs:    make(map[core.OID]store.Registration, len(rec.Visitors)),
			Runs:    rec.Runs,
			NextSeq: rec.NextSeq,
		}
		for _, v := range rec.Visitors {
			state.Regs[v.OID] = registration(v)
		}
		if err := r.sdb.ReplInstallSnapshot(stream, state, r.fetchRun(stream)); err != nil {
			return err
		}
		r.resyncs.Add(1)
		s.met.Counter("repl_resyncs").Inc()
	default:
		return fmt.Errorf("%w: unknown replication op %d", core.ErrBadRequest, rec.Op)
	}
	return nil
}

// fetchRun returns the run-file fetcher for shard: chunked RunFetch calls
// against the peer, verified and installed by the store.
func (r *replState) fetchRun(shard int) func(name string) error {
	s := r.s
	return func(name string) error {
		err := r.sdb.ReplFetchRun(name, func(off int64, maxBytes int) ([]byte, bool, error) {
			pol := transport.RetryPolicy{
				MaxAttempts:   4,
				BaseBackoff:   20 * time.Millisecond,
				MaxBackoff:    replSendIdle,
				PerTryTimeout: s.opts.CallTimeout,
			}
			m := msg.RunFetch{Shard: shard, Name: name, Off: off, MaxBytes: maxBytes}
			res, err := transport.CallWithRetry(s.ctx, s.node, func() msg.NodeID { return r.peer }, m, pol)
			if err != nil {
				return nil, false, err
			}
			fr, ok := res.(msg.RunFetchRes)
			if !ok {
				return nil, false, fmt.Errorf("server %s: unexpected run fetch reply %T", s.cfg.ID, res)
			}
			return fr.Data, fr.EOF, nil
		})
		if err == nil {
			r.runsInstalled.Add(1)
			s.met.Counter("repl_runs_fetched").Inc()
		}
		return err
	}
}

// handleRunFetch serves a chunk of an immutable run file to the peer.
func (s *Server) handleRunFetch(req msg.RunFetch) (msg.Message, error) {
	r := s.repl
	if r == nil {
		return nil, fmt.Errorf("%w: server %s has no replication peer", core.ErrBadRequest, s.cfg.ID)
	}
	data, size, eof, err := r.sdb.ReadRunChunk(req.Name, req.Off, req.MaxBytes)
	if err != nil {
		return nil, err
	}
	return msg.RunFetchRes{Size: size, Data: data, EOF: eof}, nil
}

// handlePromote executes a parent-ordered takeover.
func (s *Server) handlePromote(req msg.Promote) (msg.Message, error) {
	r := s.repl
	if r == nil {
		return nil, fmt.Errorf("%w: server %s has no replication peer", core.ErrBadRequest, s.cfg.ID)
	}
	return msg.PromoteRes{Epoch: r.promote(req.Epoch)}, nil
}

// replDiag snapshots the replication state for DiagRes.
func (s *Server) replDiag() *msg.ReplDiag {
	r := s.repl
	if r == nil {
		return nil
	}
	return &msg.ReplDiag{
		Role:          r.role(),
		Peer:          r.peer,
		Epoch:         r.epoch.Load(),
		Pending:       r.pendingTotal(),
		Acked:         r.acked.Load(),
		Fenced:        r.fenced.Load(),
		RunsInstalled: r.runsInstalled.Load(),
		Resyncs:       r.resyncs.Load(),
	}
}

// replGauges refreshes the replication gauges on the janitor tick.
func (r *replState) updateGauges() {
	met := r.s.met
	role := int64(0)
	if r.primary.Load() {
		role = 1
	}
	met.Gauge("repl_role").Set(role)
	met.Gauge("repl_epoch").Set(int64(r.epoch.Load()))
	met.Gauge("repl_pending").Set(r.pendingTotal())
	met.Gauge("repl_acked").Set(r.acked.Load())
}

// ---------------------------------------------------------------------------
// Parent-side failover: health checks and promotion.

// replMonitor is the parent's health-check loop over Options.Replicas.
// Probes ride the same transport as everything else, so an open breaker
// (ErrBreakerOpen) counts as a failed probe without waiting out a
// timeout; ReplFailThreshold consecutive failures trigger the takeover.
func (s *Server) replMonitor(ticker *clock.Ticker) {
	defer s.wg.Done()
	defer ticker.Stop()
	pairs := make(map[string]string, len(s.opts.Replicas))
	for p, b := range s.opts.Replicas {
		pairs[p] = b
	}
	fails := make(map[string]int, len(pairs))
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-ticker.C:
		}
		for primary, standby := range pairs {
			// One probe is a few quick attempts, not one datagram
			// exchange: a lossy link must not read as a dead primary,
			// or the monitor promotes standbys for every loss burst.
			// An open breaker still fails the whole probe instantly.
			ctx, cancel := s.clk.WithTimeout(s.ctx, s.opts.ReplHealthInterval)
			_, err := transport.CallWithRetry(ctx, s.node,
				func() msg.NodeID { return msg.NodeID(primary) }, msg.DiagReq{},
				transport.RetryPolicy{
					MaxAttempts:   3,
					BaseBackoff:   s.opts.ReplHealthInterval / 50,
					MaxBackoff:    s.opts.ReplHealthInterval / 10,
					PerTryTimeout: s.opts.ReplHealthInterval / 3,
				})
			cancel()
			if err == nil {
				fails[primary] = 0
				continue
			}
			fails[primary]++
			s.met.Counter("repl_probe_failures").Inc()
			if fails[primary] < s.opts.ReplFailThreshold {
				continue
			}
			if s.failover(primary, standby) {
				delete(pairs, primary)
				pairs[standby] = primary
				fails[primary] = 0
				fails[standby] = 0
			}
		}
	}
}

// failover promotes standby and rebinds primary's child record to it.
// Returns false (and leaves the pair as is, to retry next tick) if the
// standby did not confirm the promotion.
func (s *Server) failover(primary, standby string) bool {
	pol := transport.RetryPolicy{
		MaxAttempts:   4,
		BaseBackoff:   25 * time.Millisecond,
		MaxBackoff:    250 * time.Millisecond,
		PerTryTimeout: s.opts.CallTimeout,
	}
	res, err := transport.CallWithRetry(s.ctx, s.node, func() msg.NodeID { return msg.NodeID(standby) }, msg.Promote{}, pol)
	if err != nil {
		s.met.Counter("repl_failover_errors").Inc()
		return false
	}
	if _, ok := res.(msg.PromoteRes); !ok {
		s.met.Counter("repl_failover_errors").Inc()
		return false
	}
	// Promotion confirmed: route around the dead primary. The rebind is
	// atomic for readers (child lookups load one consistent slice); the
	// forwarding-reference rewrite repoints existing visitors' paths.
	s.rebindChild(primary, standby)
	if _, err := s.visitors.RewriteForward(primary, standby); err != nil {
		s.met.Counter("visitor_db_errors").Inc()
	}
	s.met.Counter("repl_failovers").Inc()
	return true
}

// ---------------------------------------------------------------------------
// Child routing: reads go through an atomically swappable slice so a
// failover can rebind a child without a lock on every lookup.

// childRecords returns the current child list (rebind-aware). Callers
// must not mutate it.
func (s *Server) childRecords() []store.ChildRecord {
	if p := s.children.Load(); p != nil {
		return *p
	}
	return s.cfg.Children
}

// childFor resolves the child responsible for p against the current
// (possibly rebound) child list.
func (s *Server) childFor(p geo.Point) (store.ChildRecord, bool) {
	cfg := s.cfg
	cfg.Children = s.childRecords()
	return cfg.ChildFor(p)
}

// rebindChild swaps the child record named old to new, keeping its
// service area. Reports whether a record changed.
func (s *Server) rebindChild(old, new string) bool {
	for {
		cur := s.children.Load()
		src := s.cfg.Children
		if cur != nil {
			src = *cur
		}
		idx := -1
		for i, c := range src {
			if c.ID == old {
				idx = i
				break
			}
		}
		if idx < 0 {
			return false
		}
		next := make([]store.ChildRecord, len(src))
		copy(next, src)
		next[idx].ID = new
		if s.children.CompareAndSwap(cur, &next) {
			return true
		}
	}
}
