// Write-ahead logging for the store package.
//
// # Log format
//
// A log is a sequence of JSON-encoded WALRecord lines ("JSON lines"), one
// record per '\n'-terminated line, appended in commit order. Every record
// is encoded by hand (appendWALRecordJSON, byte for byte what json.Marshal
// writes for visitor, epoch and sremove records); encoding/json only reads
// logs back. Two record families share the framing:
//
//   - visitor mutations — Op "put"/"remove" with the Visitor field set,
//     one record per mutation (registration, deregistration, handover,
//     accuracy change — rare by design, Section 5 of the paper): an inner
//     server's forwarding table (VisitorDB: a child slot and an int64
//     PathT per object; VisitorRecord is its log and API form) logs its
//     forwarding records, a leaf's sighting store its registrations
//     (WithRegistrationLog), appended under the shard lock and replayed
//     before the sighting segments. A registration record also rides its
//     shard's ShardedWAL queue while a replication tee is installed, but
//     is never written to a sighting segment;
//   - sighting mutations — Op "sbatch" carrying a whole group-commit batch
//     of sightings in one record, and Op "sremove" carrying one removed
//     object id. These are appended by ShardedSightingDB through a
//     ShardedWAL, one log segment per shard; batch framing amortizes the
//     marshal and flush cost across the batch exactly as the update
//     pipeline's combining lane amortizes lock cost. Segments of a
//     directory past epoch 0 — one an earlier build re-partitioned — start
//     with an Op "epoch" layout marker (the epoch and the shard count ids
//     are hashed across from that record on); see ShardedWAL for how
//     recovery reads that layout.
//
// # Durability modes
//
// FileWAL.Append flushes the userspace buffer to the OS, so a log survives
// a process crash or kill (the durability the paper's restart design
// needs). WithSync additionally fsyncs every commit for machine-crash
// durability at the usual cost. ShardedWAL has one append path: appends
// are enqueued per shard and a writer goroutine commits queued records in
// order, so a kill can lose at most the last queue-depth records per shard
// while every segment stays a clean prefix of its shard's history, and
// ShardedWAL.Flush is the barrier. With WithSync each append waits for the
// writer's fsynced commit of its record, so nothing acknowledged is lost.
//
// # Recovery guarantees
//
// Replay delivers the longest well-formed prefix of the log:
//
//   - a partial final line — the torn tail a crash mid-append leaves — is
//     ignored, and the store recovers to the state before that append;
//   - an unparseable record anywhere before the final line is corruption,
//     not a torn write: Replay stops and returns an error wrapping
//     ErrCorruptWAL that identifies the byte offset, rather than silently
//     dropping every record after it;
//   - record length is unbounded; replay is not capped at any line size.
//
// CompactRecords rewrites a log to its live set via a temporary file in the
// same directory followed by an atomic rename. A crash (or any failure)
// before the rename leaves the original log untouched and the WAL usable;
// leftover ".wal-rewrite-*" temporaries are never read back, and
// OpenShardedWAL sweeps them from sharded-log directories.
//
// # Crash ordering
//
// Every atomic file swap in this package — segment compaction and
// epoch-segment creation here, run and manifest installation in the
// tiered store — follows the same four-step protocol, in this order:
// write the temporary, fsync the temporary, rename it over the final
// name, fsync the parent directory. The file fsync before the rename
// guarantees the named file can never be observed with partial content;
// the directory fsync after the rename is what makes the swap itself
// durable — POSIX does not order a rename's directory update against the
// renamed file's data, so rename-without-dir-fsync can lose the entry
// (or resurrect the old inode) on power failure even though the file's
// own fsync succeeded. Readers therefore trust any file they find under
// a final name, and every recovery invariant (a manifest's runs exist; a
// segment is a clean prefix) reduces to this ordering.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"locsvc/internal/core"
)

// WALOp is the kind of a write-ahead-log record.
type WALOp string

// WAL operations.
const (
	// WALPut and WALRemove are visitor-record mutations: an inner
	// server's forwarding records, a leaf's registrations.
	WALPut    WALOp = "put"
	WALRemove WALOp = "remove"
	// WALSightingBatch carries one group-commit batch of sighting puts;
	// WALSightingRemove one sighting removal (deregistration, handover or
	// soft-state expiry).
	WALSightingBatch  WALOp = "sbatch"
	WALSightingRemove WALOp = "sremove"
	// WALEpoch is the layout marker heading every sighting segment at
	// epoch > 0: it records the epoch number and the shard count of the
	// id→segment mapping the rest of the segment was written under, which
	// is what lets recovery read a directory an earlier build
	// re-partitioned, or crashed while re-partitioning. Only the open of
	// such a directory and the compaction of its segments write it; it
	// carries no object state.
	WALEpoch WALOp = "epoch"
)

// ErrCorruptWAL marks an unparseable record before the final line of a log:
// mid-file damage that replay must surface instead of treating as a torn
// tail. Errors wrapping it identify the byte offset of the bad record.
var ErrCorruptWAL = errors.New("store: corrupt WAL record")

// WALRecord is one logged mutation. Exactly one payload field is set,
// according to Op: Visitor for visitorDB records, Sightings for a sighting
// batch, OID for a sighting removal. Replay decodes by its JSON tags and
// VisitorRecord's, which appendWALRecordJSON writes by hand: change them
// together (TestWALRecordEncodingRoundTrip catches a mismatch).
type WALRecord struct {
	Op      WALOp          `json:"op"`
	Visitor *VisitorRecord `json:"visitor,omitempty"`
	// Sightings is the batch payload of a WALSightingBatch record; later
	// entries for the same object supersede earlier ones, exactly as in
	// SightingStore.PutBatch.
	Sightings []core.Sighting `json:"sightings,omitempty"`
	// OID is the removed object of a WALSightingRemove record.
	OID core.OID `json:"oid,omitempty"`
	// Epoch and ShardCount describe the segment layout of a WALEpoch
	// record: the layout epoch and the number of shards ids are hashed
	// across from this record on.
	Epoch      int64 `json:"epoch,omitempty"`
	ShardCount int   `json:"shards,omitempty"`
}

// WAL is the persistence backend of an inner server's forwarding table (a
// VisitorDB: a child slot and an int64 PathT per object; VisitorRecord is
// its log and API form) and of a leaf's registration log. Implementations
// must allow Replay before the first Append.
type WAL interface {
	// Replay streams every logged record in order, oldest first.
	Replay(fn func(WALRecord) error) error
	// Append durably adds one record.
	Append(rec WALRecord) error
	// Close releases resources.
	Close() error
}

// NullWAL is a no-op WAL for servers that do not need durable forwarding
// paths (benchmarks, simulations).
type NullWAL struct{}

var _ WAL = NullWAL{}

// Replay implements WAL.
func (NullWAL) Replay(func(WALRecord) error) error { return nil }

// Append implements WAL.
func (NullWAL) Append(WALRecord) error { return nil }

// Close implements WAL.
func (NullWAL) Close() error { return nil }

// FileWAL is a JSON-lines append-only log on disk. It substitutes the
// paper's DB2 database: visitor-record changes are rare (registration,
// deregistration, handover, accuracy change only), so a simple synchronous
// log keeps forwarding paths and registrations durable. Rare is not free:
// the commute_updates benchmark registers 40 000 objects at three appends
// each (the leaf's registration log, then two forwarding logs), and in a
// CPU profile of its set-up on a 2-core VM, Append was 28–30 % of the
// samples while it ran json.Marshal, and 16–18 % once it encoded by hand.
// Append encodes every record by hand into one buffer it keeps
// (appendWALRecordJSON), so a visitor append allocates nothing and costs
// one write. It also serves as the per-shard segment of a ShardedWAL, where
// batch framing keeps the sighting update path cheap.
type FileWAL struct {
	mu   sync.Mutex
	path string
	f    *os.File
	w    *bufio.Writer
	// buf is the encode buffer Append reuses, so a visitor append
	// allocates nothing.
	buf []byte
	// Sync forces an fsync after every append. Off by default: the
	// paper's durability need is "survive process restart", and tests
	// exercise that; enable for machine-crash durability.
	sync bool
}

var _ WAL = (*FileWAL)(nil)

// FileWALOption customizes a FileWAL.
type FileWALOption func(*FileWAL)

// WithSync enables fsync-per-append.
func WithSync() FileWALOption {
	return func(w *FileWAL) { w.sync = true }
}

// OpenFileWAL opens (creating if needed) the log at path.
func OpenFileWAL(path string, opts ...FileWALOption) (*FileWAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening WAL %s: %w", path, err)
	}
	w := &FileWAL{path: path, f: f, w: bufio.NewWriter(f)}
	for _, opt := range opts {
		opt(w)
	}
	if w.sync {
		// Make a just-created log's directory entry durable too; without
		// this a machine crash could forget the file while its records'
		// fsyncs succeeded.
		if err := syncDir(path); err != nil {
			f.Close()
			return nil, err
		}
	}
	return w, nil
}

// syncDir fsyncs the directory containing path, making a create or rename
// of that entry durable against machine crash.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("store: opening WAL directory: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: syncing WAL directory: %w", err)
	}
	return nil
}

// Path returns the log's file path, for diagnostics.
func (w *FileWAL) Path() string { return w.path }

// Replay implements WAL. Only a partial final line — the torn tail a crash
// mid-append leaves behind — is tolerated: it is ignored AND truncated
// away, so later appends start a fresh line instead of gluing onto the
// fragment (which would read back as corruption on the next restart). An
// unterminated final line that parses whole is kept and its missing
// newline written. An unparseable record anywhere earlier is corruption
// and yields an error wrapping ErrCorruptWAL with the record's byte
// offset, after fn has received the intact prefix. Records of any length
// replay; there is no line-size cap.
func (w *FileWAL) Replay(fn func(WALRecord) error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("store: flushing WAL before replay: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: seeking WAL: %w", err)
	}
	// Always leave the file positioned at the end for later appends,
	// whatever path returns.
	defer w.f.Seek(0, io.SeekEnd)
	r := bufio.NewReaderSize(w.f, 64*1024)
	var offset int64
	for {
		line, rerr := r.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return fmt.Errorf("store: reading WAL at offset %d: %w", offset, rerr)
		}
		terminated := bytes.HasSuffix(line, []byte{'\n'})
		rec := bytes.TrimSuffix(line, []byte{'\n'})
		if len(rec) > 0 {
			var parsed WALRecord
			if uerr := json.Unmarshal(rec, &parsed); uerr != nil {
				if !terminated {
					// Partial final line: the torn tail of a crashed
					// append. Recover to the state before it, and cut the
					// fragment off so the next append starts cleanly.
					if terr := w.f.Truncate(offset); terr != nil {
						return fmt.Errorf("store: truncating torn WAL tail at offset %d: %w", offset, terr)
					}
					return nil
				}
				return fmt.Errorf("%w at offset %d of %s: %v", ErrCorruptWAL, offset, w.path, uerr)
			}
			if err := fn(parsed); err != nil {
				return err
			}
			if !terminated {
				// A whole record whose trailing newline the crash ate:
				// keep it and complete the framing so the next append
				// does not fuse with it.
				if _, werr := w.f.Seek(0, io.SeekEnd); werr != nil {
					return fmt.Errorf("store: seeking WAL end: %w", werr)
				}
				if _, werr := w.f.Write([]byte{'\n'}); werr != nil {
					return fmt.Errorf("store: terminating final WAL record: %w", werr)
				}
			}
		}
		offset += int64(len(line))
		if rerr == io.EOF {
			return nil
		}
	}
}

// Append implements WAL.
func (w *FileWAL) Append(rec WALRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	buf, err := appendWALRecordJSON(w.buf[:0], rec, nil)
	if err != nil {
		return err
	}
	w.buf = buf
	if _, err := w.w.Write(buf); err != nil {
		return fmt.Errorf("store: writing WAL record: %w", err)
	}
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("store: flushing WAL: %w", err)
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("store: syncing WAL: %w", err)
		}
	}
	return nil
}

// AppendRaw appends pre-encoded, newline-terminated records as a single
// write and flush — the commit path of ShardedWAL's writer goroutines,
// which amortize the syscall over a whole queue drain. The caller is
// responsible for the encoding being valid JSON lines (appendWALRecordJSON).
func (w *FileWAL) AppendRaw(data []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.w.Write(data); err != nil {
		return fmt.Errorf("store: writing WAL records: %w", err)
	}
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("store: flushing WAL: %w", err)
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("store: syncing WAL: %w", err)
		}
	}
	return nil
}

// walTempPattern names the temporaries of every atomic segment rewrite
// (compaction and epoch-segment creation). They are never read back;
// OpenShardedWAL sweeps crash leftovers matching walTempGlob.
const (
	walTempPattern = ".wal-rewrite-*"
	walTempGlob    = ".wal-*"
)

// writeRecordsAtomic encodes recs as JSON lines into a temporary file
// beside path, flushes and fsyncs it, renames it over path, and fsyncs
// the parent directory — the one shared implementation of the
// write-temp/fsync/rename/dir-fsync protocol behind compaction and
// epoch-segment creation (see the crash-ordering note in the package
// comment). It returns the temporary's handle, which after the rename
// refers to path and is positioned at the end, ready for the caller to
// adopt for appends. Every failure path before the rename removes the
// temporary and leaves path untouched; a directory-fsync failure after
// the rename is reported, since the swap may not survive a machine
// crash.
func writeRecordsAtomic(path string, recs []WALRecord) (*os.File, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), walTempPattern)
	if err != nil {
		return nil, fmt.Errorf("store: creating segment rewrite file: %w", err)
	}
	abort := func(err error) (*os.File, error) {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	bw := bufio.NewWriter(tmp)
	var buf []byte
	var memo walTimeMemo
	for _, rec := range recs {
		if buf, err = appendWALRecordJSON(buf[:0], rec, &memo); err != nil {
			return abort(err)
		}
		if _, err := bw.Write(buf); err != nil {
			return abort(fmt.Errorf("store: writing segment rewrite: %w", err))
		}
	}
	if err := bw.Flush(); err != nil {
		return abort(fmt.Errorf("store: flushing segment rewrite: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return abort(fmt.Errorf("store: syncing segment rewrite: %w", err))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return abort(fmt.Errorf("store: renaming rewritten segment: %w", err))
	}
	if err := syncDir(path); err != nil {
		// The rename committed in the live filesystem; only its durability
		// against machine crash is in doubt. Report rather than unwind.
		tmp.Close()
		return nil, err
	}
	return tmp, nil
}

// CompactRecords atomically replaces the log's contents with recs, in
// order (writeRecordsAtomic). The temporary's file handle becomes the new
// append handle, so no reopen can fail after the swap. Every failure path
// leaves the original log untouched, open and usable for further appends —
// a crash anywhere before the rename loses nothing but the compaction.
func (w *FileWAL) CompactRecords(recs []WALRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	tmp, err := writeRecordsAtomic(w.path, recs)
	if err != nil {
		return err
	}
	// The rename is the commit point: the temporary's handle now refers to
	// the log, so adopt it and retire the old handle. Errors past this
	// point cannot un-commit anything, so they are only reported.
	old := w.f
	w.f = tmp
	w.w = bufio.NewWriter(tmp)
	// The rename's own durability (directory fsync) was handled inside
	// writeRecordsAtomic, unconditionally: without it a machine crash could
	// revert the directory entry to the old inode and orphan every later
	// fsynced append.
	var firstErr error
	if err := old.Close(); err != nil {
		firstErr = fmt.Errorf("store: closing pre-compaction WAL handle: %w", err)
	}
	return firstErr
}

// Close implements WAL.
func (w *FileWAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("store: flushing WAL on close: %w", err)
	}
	return w.f.Close()
}
