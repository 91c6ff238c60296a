package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

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
// Every append writes through: AppendBatch and AppendRemove encode their
// record into the shard's segment and flush it to the OS with
// FileWAL.Append (plus an fsync under WithSync) before they return. The
// caller holds the store's shard lock and appends before it applies the
// change, so segment order is commit order and a record is on its way to
// disk before any reader can see its effect. An update is therefore
// acknowledged only after its record is in the OS: a process kill loses
// nothing acknowledged, and a machine crash loses nothing under WithSync
// — the same rule as the registration log.
//
// Grouping comes from the caller, not from a timer: while one update
// pipeline lane leader writes its batch, the updates arriving behind it
// queue in the lane and go out as the next batch's single record — group
// commit by the waiter, clocked by the write itself.
//
// A failed append or encode marks the WAL down: logging stops (keeping
// every segment a clean prefix rather than writing past a gap) and the
// sticky error is reported by Err, Flush and Close.
type ShardedWAL struct {
	dir string

	// count is the segment count, fixed for the life of the WAL.
	count int
	segs  []*FileWAL

	// appended counts records logged per shard since that segment's last
	// compaction, feeding the store's grow-triggered compaction policy.
	appended []atomic.Int64

	down  atomic.Bool
	errMu sync.Mutex
	err   error // first append failure, sticky

	closeOnce sync.Once
	closeErr  error
}

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
// layout. A directory in the epoch layout is refused (see "Layout"). The
// options apply to every segment; WithSync adds an fsync to each append
// (see "The append path").
func OpenShardedWAL(dir string, shards int, opts ...FileWALOption) (*ShardedWAL, error) {
	shards, err := NormalizeShards(shards)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating sighting WAL dir %s: %w", dir, err)
	}
	w := &ShardedWAL{dir: dir}

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
// segment (see "The append path"). Later entries for the same
// object supersede earlier ones, matching SightingStore.PutBatch. The
// caller may reuse the slice once the call returns. After a failed append
// the WAL is down (see Err) and calls return the sticky error without
// logging.
func (w *ShardedWAL) AppendBatch(shard int, batch []core.Sighting) error {
	return w.append(shard, WALRecord{Op: WALSightingBatch, Sightings: batch}, int64(len(batch)))
}

// AppendRemove logs the removal of id to shard's segment, like
// AppendBatch.
func (w *ShardedWAL) AppendRemove(shard int, id core.OID) error {
	return w.append(shard, WALRecord{Op: WALSightingRemove, OID: id}, 1)
}

// append writes rec through to shard's segment and counts its n sightings
// or removals toward compaction. The caller holds the store's shard lock
// and has not yet applied the change.
func (w *ShardedWAL) append(shard int, rec WALRecord, n int64) error {
	if w.down.Load() {
		return w.Err()
	}
	if err := w.segs[shard].Append(rec); err != nil {
		w.fail(err)
		return w.Err()
	}
	w.appended[shard].Add(n)
	return nil
}

// Flush returns the sticky append error, if any. Every append has reached
// the OS by the time it returns, so there is nothing left to wait for.
func (w *ShardedWAL) Flush() error {
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
// exactly live: one batch record holding the live sightings, or none. The
// caller holds the store's shard lock for the whole call, so no append can
// slip between the snapshot it passes and the rewrite.
func (w *ShardedWAL) CompactShard(shard int, live []core.Sighting) error {
	var recs []WALRecord
	if len(live) > 0 {
		recs = append(recs, WALRecord{Op: WALSightingBatch, Sightings: live})
	}
	if err := w.segs[shard].CompactRecords(recs); err != nil {
		return err
	}
	w.appended[shard].Store(0)
	return nil
}

// Close closes every segment. It is idempotent. The caller should have
// stopped appending (as with FileWAL.Close): an append after Close fails
// on the closed segment and marks the WAL down.
func (w *ShardedWAL) Close() error {
	w.closeOnce.Do(func() {
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
