package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"locsvc/internal/core"
)

// ShardedWAL persists a sharded sighting store through one FileWAL segment
// per shard, so crash recovery can replay every shard concurrently instead
// of scanning one serial log. Records are routed by the same id-hash shard
// mapping the store uses, which gives each segment a total order consistent
// with its shard's lock: all of one object's records live in exactly one
// segment, in application order.
//
// The append unit is the group-commit batch of the update pipeline: one
// WALSightingBatch record per PutBatch shard group, so the encode and
// flush cost of durability is amortized over the batch exactly as the
// combining lane amortizes lock cost.
//
// # Layout
//
// A directory holds one segment per shard, named shard-NNNN.wal, each a log
// in the binary format of wal.go with no marker beyond its header; the
// first open fixes the segment count. Earlier builds could re-partition a
// running store into epoch-stamped segments (shard-NNNN-eNNNNNN.wal), and
// wrote segments in JSON lines. OpenShardedWAL refuses a directory holding
// either: the error names the file and nothing is deleted or created.
//
// # The append path
//
// Every append — AppendBatch, AppendRemove, Mark and, while a replication
// tee is installed, the store's registration changes — enqueues its record
// on the shard's pending list (the caller holds the shard lock, so list
// order is commit order — the update path pays one batch copy and a slice
// append), and a per-segment writer goroutine swaps the list out, encodes
// it (markers and registration changes are never written to the segment),
// commits the whole drain with a single write+flush and then tees it.
// The writer waits a short coalescing window (walCoalesceDelay) before
// each swap, so even a trickle of updates amortizes the encode setup and
// the syscall across a group — the group-commit idea applied once more, at
// the disk boundary. This gives bounded-lag durability: at any kill point
// each segment holds a consistent prefix of its shard's history, at most
// the pending cap plus one coalescing window behind; Flush is the barrier
// that waits for everything already appended to reach the OS.
//
// With WithSync an append also registers a barrier with its record, so the
// writer commits at once (fsyncing the segment) and the append returns only
// after its record is on disk and teed. The caller still holds the shard
// lock, so a record is durable before the store applies it — full
// machine-crash durability on the update path.
//
// A failed append or encode marks the WAL down: logging stops (keeping
// every segment a clean prefix rather than writing past a gap) and the
// sticky error is reported by Err, Flush and Close.
type ShardedWAL struct {
	dir string
	// sync (WithSync) makes every append wait for its own commit.
	sync bool

	// count is the segment count, fixed for the life of the WAL.
	count int
	segs  []*FileWAL
	bufs  []walShardBuf

	// appended counts records logged per shard since that segment's last
	// compaction, feeding the store's grow-triggered compaction policy.
	appended []atomic.Int64

	wg sync.WaitGroup // writer goroutines

	down  atomic.Bool
	errMu sync.Mutex
	err   error // first append failure, sticky

	// tee, when set, observes every committed sighting record in per-shard
	// commit order (see SetReplTee).
	tee atomic.Pointer[replTeeBox]

	closeOnce sync.Once
	closeErr  error
}

// ReplTee observes each shard's committed records, for replication. The
// shard's writer goroutine calls it right after the records reach the OS,
// so a teed record is always also durable locally, and calls for one shard
// arrive in that shard's commit order. With WithSync the append waits for
// its tee too. Implementations must not block (the writer goroutine, and
// with WithSync the update path, stalls behind them).
type ReplTee interface {
	// TeeRecord observes one record: a put batch, whose Sightings the tee
	// must copy (the slice is recycled); a removal; a registration change
	// (WALPut or WALRemove, which the registration log holds on disk); or a
	// marker enqueued by Mark (WALMark, its token in Token), which carries
	// no state and pins where in the stream a replication snapshot was
	// taken.
	TeeRecord(shard int, rec WALRecord)
}

// replTeeBox wraps the tee for atomic.Pointer storage.
type replTeeBox struct{ t ReplTee }

// SetReplTee installs (or, with nil, removes) the replication tee.
func (w *ShardedWAL) SetReplTee(t ReplTee) {
	if t == nil {
		w.tee.Store(nil)
		return
	}
	w.tee.Store(&replTeeBox{t: t})
}

// replTee returns the installed tee, or nil.
func (w *ShardedWAL) replTee() ReplTee {
	if b := w.tee.Load(); b != nil {
		return b.t
	}
	return nil
}

// WALMark is the record op of a replication marker (Mark). It flows through
// the shard's append buffer for ordering but is never encoded to the
// segment file, so replay never sees it.
const WALMark WALOp = "replmark"

// Mark enqueues a replication marker on shard's stream. The caller must
// hold the store lock of the shard (like any append), which is what makes
// the marker's position in the commit order meaningful: every record
// appended before it under that lock is teed before it.
func (w *ShardedWAL) Mark(shard int, token uint64) error {
	return w.enqueue(shard, WALRecord{Op: WALMark, Token: token}, nil)
}

// appendRegistration enqueues a registration change for the replication
// tee, in commit order like Mark, only while a tee is installed.
func (w *ShardedWAL) appendRegistration(shard int, rec WALRecord) {
	if w.replTee() != nil {
		_ = w.enqueue(shard, rec, nil)
	}
}

// walShardBuf is one shard's pending append list, double-buffered with its
// writer goroutine.
type walShardBuf struct {
	mu    sync.Mutex
	data  *sync.Cond // signals the writer: records or acks pending
	space *sync.Cond // signals producers: list drained below the cap
	recs  []WALRecord
	acks  []chan struct{} // flush barriers to close after the next commit
	stop  bool
	// compacting pauses the writer between BeginCompact and
	// FinishCompact: records keep accumulating here but none may reach
	// the old segment, or the rename would discard them.
	compacting bool
	// free recycles the copied batch slices between writer and producers
	// (both already hold mu), keeping the append path allocation-free in
	// the steady state — garbage here would turn into GC scan pressure on
	// the store's large pointer-rich heap.
	free [][]core.Sighting
}

// initCond wires the buffer's condition variables.
func (sb *walShardBuf) initCond() {
	sb.data = sync.NewCond(&sb.mu)
	sb.space = sync.NewCond(&sb.mu)
}

// waitSpace blocks until the pending list is below the cap (or shutdown).
// Caller holds sb.mu.
func (sb *walShardBuf) waitSpace() {
	for len(sb.recs) >= walPendingCap && !sb.stop {
		sb.space.Wait()
	}
}

// push adds rec to the pending list, waking the writer on the empty→
// nonempty edge. Caller holds sb.mu after waitSpace.
func (sb *walShardBuf) push(rec WALRecord) {
	sb.recs = append(sb.recs, rec)
	if len(sb.recs) == 1 {
		sb.data.Signal()
	}
}

// takeBatchBuf pops a recycled batch slice. Caller holds sb.mu.
func (sb *walShardBuf) takeBatchBuf() []core.Sighting {
	if n := len(sb.free); n > 0 {
		buf := sb.free[n-1]
		sb.free[n-1] = nil
		sb.free = sb.free[:n-1]
		return buf
	}
	return nil
}

// walPendingCap bounds a shard's pending record list; producers blocking
// on it are the backpressure when the disk falls behind. It also bounds
// what a kill can lose without WithSync.
const walPendingCap = 4096

// walCoalesceDelay is how long a writer lingers after the first pending
// record before committing, letting a commit group form. It bounds the
// extra durability lag and the latency of a Flush barrier.
const walCoalesceDelay = time.Millisecond

// walCompactSlack is how far a log's history may exceed its live set
// before compaction triggers — shared by the janitor's grow-triggered pass
// (CompactWALIfGrown), the post-recovery auto-compaction of a segment and
// the compaction of a visitor log at open, so all fire at the same point.
const walCompactSlack = 1024

// segmentPath names shard i's log inside dir.
func segmentPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.wal", i))
}

// parseSegmentName inverts segmentPath for directory scans.
func parseSegmentName(name string) (shard int, ok bool) {
	var i int
	if n, err := fmt.Sscanf(name, "shard-%d.wal", &i); n == 1 && err == nil && name == fmt.Sprintf("shard-%04d.wal", i) {
		return i, true
	}
	return 0, false
}

// epochSegmentGlob matches the segment names of the epoch layout
// (shard-NNNN-eNNNNNN.wal) that earlier builds' re-partition wrote.
// OpenShardedWAL refuses a directory holding one.
const epochSegmentGlob = "shard-*-e*.wal"

// OpenShardedWAL opens (creating if needed) a sharded sighting log under
// dir. For a fresh directory, shards fixes the initial segment count
// (normalized through NormalizeShards: negative is an error, zero means
// one). A directory that already holds history opens at the count its
// segments were written under — the persistent log, not the flag, pins the
// layout. A directory in the epoch layout is refused (see "Layout"). Every
// segment gets its writer goroutine; passing WithSync makes each append
// wait for its own fsynced commit (see "The append path").
func OpenShardedWAL(dir string, shards int, opts ...FileWALOption) (*ShardedWAL, error) {
	shards, err := NormalizeShards(shards)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating sighting WAL dir %s: %w", dir, err)
	}
	var probe FileWAL
	for _, opt := range opts {
		opt(&probe)
	}
	w := &ShardedWAL{dir: dir, sync: probe.sync}

	w.count, err = w.settleLayout(shards)
	if err != nil {
		return nil, err
	}
	w.segs = make([]*FileWAL, w.count)
	w.appended = make([]atomic.Int64, w.count)
	for i := range w.segs {
		seg, err := OpenFileWAL(segmentPath(dir, i), opts...)
		if err != nil {
			w.Close()
			return nil, err
		}
		w.segs[i] = seg
	}
	w.bufs = make([]walShardBuf, w.count)
	for i := range w.bufs {
		w.bufs[i].initCond()
		w.wg.Add(1)
		go w.writer(i)
	}
	return w, nil
}

// settleLayout scans dir and returns the segment count the WAL operates at
// (see OpenShardedWAL). A directory holding an epoch-named segment, or a
// segment that is not in the binary log format, is refused before anything
// in it is deleted.
func (w *ShardedWAL) settleLayout(requested int) (int, error) {
	files, err := os.ReadDir(w.dir)
	if err != nil {
		return 0, fmt.Errorf("store: scanning sighting WAL dir %s: %w", w.dir, err)
	}
	segs := make(map[int]string)
	for _, f := range files {
		if f.IsDir() {
			continue
		}
		path := filepath.Join(w.dir, f.Name())
		if shard, ok := parseSegmentName(f.Name()); ok {
			if _, err := checkLogHeader(path); err != nil {
				return 0, err
			}
			segs[shard] = path
		} else if matched, _ := filepath.Match(epochSegmentGlob, f.Name()); matched {
			return 0, fmt.Errorf("store: sighting WAL segment %s is in the epoch layout an earlier build's re-partition wrote; this build reads only shard-NNNN.wal segments", path)
		}
	}
	// The count is the contiguous run of segment files. A file after a gap
	// cannot be part of the layout (which writes 0..n-1): it is stale.
	n := 0
	for ; segs[n] != ""; n++ {
	}
	for shard, path := range segs {
		if shard >= n {
			os.Remove(path)
		}
	}
	// Segments holding a record pin the count; a directory of segments
	// holding at most the header (a crashed first open, an idle run) adopts
	// the requested count instead.
	for i := 0; i < n; i++ {
		if st, serr := os.Stat(segs[i]); serr == nil && st.Size() > int64(len(walHeader)) {
			return n, nil
		}
	}
	for i := requested; i < n; i++ {
		if rerr := os.Remove(segs[i]); rerr != nil {
			return 0, fmt.Errorf("store: clearing stale empty segment: %w", rerr)
		}
	}
	return requested, nil
}

// NumShards returns the number of log segments.
func (w *ShardedWAL) NumShards() int { return w.count }

// Dir returns the directory holding the segments, for diagnostics.
func (w *ShardedWAL) Dir() string { return w.dir }

// AppendBatch logs one group-commit batch of sighting puts to shard's
// segment (see "The append path" for when it is durable). Later entries
// for the same object supersede earlier ones, matching
// SightingStore.PutBatch. The batch is copied; the caller may reuse the
// slice. After a failed append the WAL is down (see Err) and calls return
// the sticky error without logging.
func (w *ShardedWAL) AppendBatch(shard int, batch []core.Sighting) error {
	return w.enqueue(shard, WALRecord{Op: WALSightingBatch}, batch)
}

// AppendRemove logs the removal of id to shard's segment, like
// AppendBatch.
func (w *ShardedWAL) AppendRemove(shard int, id core.OID) error {
	return w.enqueue(shard, WALRecord{Op: WALSightingRemove, OID: id}, nil)
}

// enqueue puts rec on shard's pending list (a put record gets a copy of
// batch as its payload) and, with WithSync, waits until the writer has
// committed and teed it. The caller holds the store's shard lock across
// that wait on purpose: it is what makes a record durable before the store
// applies it.
func (w *ShardedWAL) enqueue(shard int, rec WALRecord, batch []core.Sighting) error {
	if w.down.Load() {
		return w.Err()
	}
	sb := &w.bufs[shard]
	sb.mu.Lock()
	sb.waitSpace()
	if rec.Op == WALSightingBatch {
		rec.Sightings = append(sb.takeBatchBuf(), batch...)
	}
	sb.push(rec)
	var ack chan struct{}
	if w.sync {
		ack = sb.barrierLocked()
	}
	sb.mu.Unlock()
	switch rec.Op {
	case WALSightingBatch:
		w.appended[shard].Add(int64(len(batch)))
	case WALSightingRemove:
		w.appended[shard].Add(1)
	}
	if ack == nil {
		return nil
	}
	<-ack
	return w.Err()
}

// writer is one segment's commit goroutine: it lingers for the coalescing
// window once records are pending, swaps the shard's list out, encodes it
// and hands the whole drain to the segment as one write+flush.
func (w *ShardedWAL) writer(shard int) {
	defer w.wg.Done()
	sb := &w.bufs[shard]
	seg := w.segs[shard]
	var local []WALRecord
	var out []byte
	for {
		sb.mu.Lock()
		// Hand the previous drain's batch buffers back for reuse.
		for i := range local {
			if s := local[i].Sightings; s != nil && len(sb.free) < 64 {
				sb.free = append(sb.free, s[:0])
			}
			local[i].Sightings = nil
		}
		for sb.compacting || (len(sb.recs) == 0 && len(sb.acks) == 0 && !sb.stop) {
			sb.data.Wait()
		}
		// Linger so a commit group can form — unless a barrier, shutdown
		// or backpressure wants the commit now.
		if len(sb.recs) > 0 && len(sb.acks) == 0 && !sb.stop && len(sb.recs) < walPendingCap {
			sb.mu.Unlock()
			time.Sleep(walCoalesceDelay)
			sb.mu.Lock()
		}
		local, sb.recs = sb.recs, local[:0]
		acks := sb.acks
		sb.acks = nil
		stop := sb.stop
		sb.space.Broadcast()
		sb.mu.Unlock()
		if len(local) > 0 && !w.down.Load() {
			out = out[:0]
			var err error
			for _, rec := range local {
				if rec.Op == WALMark || rec.Visitor != nil {
					continue // in-memory only: teed below, never encoded
				}
				if out, err = appendWALRecord(out, rec); err != nil {
					w.fail(err)
					break
				}
			}
			if err == nil && len(out) > 0 {
				if err = seg.AppendRaw(out); err != nil {
					w.fail(err)
				}
			}
			// Tee the drain in commit order now that it is durable.
			if tee := w.replTee(); err == nil && tee != nil {
				for _, rec := range local {
					tee.TeeRecord(shard, rec)
				}
			}
		}
		for _, ack := range acks {
			close(ack)
		}
		if stop {
			return
		}
	}
}

// stopWriters drains and stops the writer goroutines.
func (w *ShardedWAL) stopWriters() {
	for i := range w.bufs {
		sb := &w.bufs[i]
		sb.mu.Lock()
		sb.stop = true
		sb.data.Signal()
		sb.space.Broadcast()
		sb.mu.Unlock()
	}
	w.wg.Wait()
}

// Flush blocks until every record appended before the call has been handed
// to the OS, and returns the sticky append error, if any. It is the
// durability barrier of appends made without WithSync (with it, every
// append already waited for its own commit).
func (w *ShardedWAL) Flush() error {
	acks := make([]chan struct{}, len(w.bufs))
	for i := range w.bufs {
		acks[i] = w.bufs[i].barrier()
	}
	for _, ack := range acks {
		<-ack
	}
	return w.Err()
}

// barrier registers a flush barrier on a shard buffer and returns the
// channel closed once everything currently buffered is committed.
func (sb *walShardBuf) barrier() chan struct{} {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.barrierLocked()
}

// barrierLocked is barrier for a caller holding sb.mu.
func (sb *walShardBuf) barrierLocked() chan struct{} {
	ack := make(chan struct{})
	if sb.stop {
		// Writer is gone (or going): nothing further will commit.
		close(ack)
	} else {
		sb.acks = append(sb.acks, ack)
		sb.data.Signal()
	}
	return ack
}

// flushShard is Flush for a single shard buffer.
func (w *ShardedWAL) flushShard(shard int) error {
	<-w.bufs[shard].barrier()
	return w.Err()
}

// Err returns the sticky error of the first failed append, or nil while
// the WAL is healthy. After a non-nil return the WAL has stopped logging
// and recovery will replay only the state up to the failure.
func (w *ShardedWAL) Err() error {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return w.err
}

// fail records the first append error and stops further logging. Stopping
// entirely rather than writing past a gap keeps every segment a clean
// prefix of its shard's history: a prefix recovers to a correct (if stale)
// state, while a log with a hole could resurrect a removed record.
func (w *ShardedWAL) fail(err error) {
	w.errMu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.errMu.Unlock()
	w.down.Store(true)
}

// ReplayShard streams shard's records oldest first, with FileWAL.Replay's
// recovery guarantees (torn tail truncated, a damaged record anywhere
// surfaced with its offset).
func (w *ShardedWAL) ReplayShard(shard int, fn func(WALRecord) error) error {
	return w.segs[shard].Replay(fn)
}

// AppendedSince reports how many sightings and removals were logged to
// shard's segment since its last compaction (a batch counts its length) —
// the grow signal for compaction policies, commensurable with a live-set
// size.
func (w *ShardedWAL) AppendedSince(shard int) int64 {
	return w.appended[shard].Load()
}

// CompactShard atomically rewrites shard's segment so that it replays to
// exactly (live, dead): one batch record holding the live sightings, then
// one removal record per dead id — the tombstones a replicated snapshot
// install must keep, or run-resident versions would resurrect on the next
// crash. It first drains the shard's append buffer (a buffered
// pre-snapshot record written after the snapshot would un-supersede it on
// replay). The caller must guarantee no concurrent appends to the same
// shard for the whole call (the store holds the shard lock); the
// BeginCompact/FinishCompact pair lets the disk work happen outside the
// shard lock instead.
func (w *ShardedWAL) CompactShard(shard int, live []core.Sighting, dead []core.OID) error {
	if err := w.flushShard(shard); err != nil {
		return err
	}
	return w.rewriteSegment(shard, live, dead)
}

// BeginCompact prepares shard for a low-stall compaction: it drains the
// shard's pending records to the current segment and pauses the shard's
// writer, so a live-set snapshot the caller takes before releasing the
// store's shard lock is consistent with the segment. Appends keep flowing
// into the in-memory buffer while the caller rewrites the segment with
// FinishCompact — they land after the snapshot in the new segment, which
// is exactly the replay order that reproduces the store (a WithSync append
// waits for that landing). The caller must hold the store's shard lock across BeginCompact and the
// snapshot, and must call FinishCompact exactly once afterwards.
func (w *ShardedWAL) BeginCompact(shard int) error {
	if err := w.flushShard(shard); err != nil {
		return err
	}
	sb := &w.bufs[shard]
	sb.mu.Lock()
	sb.compacting = true
	sb.mu.Unlock()
	return nil
}

// FinishCompact rewrites shard's segment to exactly live and resumes the
// shard's writer, which then drains whatever accumulated during the
// rewrite into the new segment. Called without the store's shard lock.
func (w *ShardedWAL) FinishCompact(shard int, live []core.Sighting) error {
	err := w.rewriteSegment(shard, live, nil)
	sb := &w.bufs[shard]
	sb.mu.Lock()
	sb.compacting = false
	sb.data.Signal()
	sb.mu.Unlock()
	return err
}

// rewriteSegment replaces shard's segment contents with one live-set batch
// record and one removal record per dead id, and resets the growth counter.
func (w *ShardedWAL) rewriteSegment(shard int, live []core.Sighting, dead []core.OID) error {
	var recs []WALRecord
	if len(live) > 0 {
		recs = append(recs, WALRecord{Op: WALSightingBatch, Sightings: live})
	}
	for _, id := range dead {
		recs = append(recs, WALRecord{Op: WALSightingRemove, OID: id})
	}
	if err := w.segs[shard].CompactRecords(recs); err != nil {
		return err
	}
	w.appended[shard].Store(0)
	return nil
}

// Close drains the append buffers, stops the writers and closes every
// segment. It is idempotent. The caller should have stopped appending (as
// with FileWAL.Close); an append racing Close is dropped — the stop flag
// under each shard's mutex keeps it a clean drop, never a reorder or a
// race — and appends after Close park on the stopped buffer without
// touching the closed segments.
func (w *ShardedWAL) Close() error {
	w.closeOnce.Do(func() {
		w.stopWriters()
		errs := []error{w.Err()}
		for _, seg := range w.segs {
			if seg != nil {
				if err := seg.Close(); err != nil {
					errs = append(errs, err)
				}
			}
		}
		w.closeErr = errors.Join(errs...)
	})
	return w.closeErr
}
