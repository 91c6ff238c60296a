// Write-ahead logging for the store package.
//
// # Log format
//
// Every log — a visitor log, a registration log, a sighting segment — is
// the 8-byte header "LSWAL001" (magic and version, as runs carry LSRUN001)
// followed by records in commit order, each a 12-byte frame and a payload:
//
//	length u32 | CRC32(length) u32 | CRC32(payload) u32 | payload
//
// little-endian, CRC32 with the IEEE table of the run files; the length's
// own check makes a damaged length read as damage, not as a torn tail. A
// payload is an op byte and a body, built from run.go's record encoding:
//
//   - put (1) or remove (2) of a visitor record: OID, ForwardRef,
//     OfferedAcc, the four RegInfo fields, PathT through unixNanos
//     (strings uvarint-length-prefixed, floats as IEEE bits) — an inner
//     server's forwarding records (VisitorDB), a leaf's registrations
//     (WithRegistrationLog), which replay before its sighting segments;
//   - a sighting batch (3), one per group-commit batch: a uvarint count
//     and one live run record without a lease per sighting; a sighting
//     removal (4): the id's tombstone run record. ShardedWAL writes these,
//     one segment per shard.
//
// Timestamps are UnixNano, so the encoder refuses a non-zero one outside
// core.InNanoRange, as it refuses fields that do not fit the op and a
// payload too long for the length field; decoded timestamps are UTC. A file
// starting with '{' is the JSON-lines format earlier builds wrote:
// OpenFileWAL and OpenShardedWAL refuse it, name it and touch nothing.
//
// # Durability modes
//
// FileWAL.Append hands each record to the OS in one write, so a log survives
// a process crash or kill (the durability the paper's restart design
// needs). WithSync additionally fsyncs every append for machine-crash
// durability at the usual cost. ShardedWAL appends the same way, one
// FileWAL.Append per record under the store's shard lock and before the
// store applies it, so every log follows one rule: a change is acknowledged
// only after its record reached the OS (and, with WithSync, the disk).
//
// # Recovery guarantees
//
// Replay delivers the longest intact prefix of the log:
//
//   - a frame or payload cut short by the end of the file — the torn tail
//     a crash mid-append leaves — is ignored and truncated away, so the
//     store recovers to the state before that append (OpenFileWAL likewise
//     completes a header cut short);
//   - a complete record failing its length check, its CRC or decoding is
//     corruption wherever it lies, the last record included: Replay stops
//     with an error wrapping ErrCorruptWAL that names the byte offset and
//     leaves the file as it is, rather than dropping every later record.
//
// CompactRecords rewrites a log to its live set via a temporary file in the
// same directory followed by an atomic rename. A crash (or any failure)
// before the rename leaves the original log untouched and the WAL usable;
// a leftover temporary (".<log name>.rewrite-*") is never read back, and
// OpenFileWAL sweeps the ones named after the log it opens.
//
// # Crash ordering
//
// Every atomic file swap in this package — log compaction here, run and
// manifest installation in the tiered store — follows the same four-step
// protocol, in this order: write the temporary, fsync the temporary,
// rename it over the final name, fsync the parent directory. The file
// fsync before the rename guarantees the named file can never be observed
// with partial content; the directory fsync after the rename is what makes
// the swap itself durable — POSIX does not order a rename's directory
// update against the renamed file's data, so rename-without-dir-fsync can
// lose the entry (or resurrect the old inode) on power failure even though
// the file's own fsync succeeded. Readers therefore trust any file they
// find under a final name, and every recovery invariant (a manifest's runs
// exist; a segment is a clean prefix) reduces to this ordering.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
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
)

// ErrCorruptWAL marks a complete log record that fails its checks: damage
// replay must surface instead of treating as a torn tail. Errors wrapping it
// identify the byte offset of the bad record.
var ErrCorruptWAL = errors.New("store: corrupt WAL record")

// WALRecord is one logged mutation. Exactly one payload field is set,
// according to Op: Visitor for visitorDB records, Sightings for a sighting
// batch, OID for a sighting removal. appendWALRecord writes it to a log and
// decodeWALRecord reads it back (see "Log format").
type WALRecord struct {
	Op      WALOp
	Visitor *VisitorRecord
	// Sightings is the batch payload of a WALSightingBatch record; later
	// entries for the same object supersede earlier ones, exactly as in
	// SightingStore.PutBatch.
	Sightings []core.Sighting
	// OID is the removed object of a WALSightingRemove record.
	OID core.OID
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
	// CompactRecords atomically replaces the log's contents with recs.
	CompactRecords(recs []WALRecord) error
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

// CompactRecords implements WAL.
func (NullWAL) CompactRecords([]WALRecord) error { return nil }

// Close implements WAL.
func (NullWAL) Close() error { return nil }

// FileWAL is an append-only log file in the binary log format. It
// substitutes the paper's DB2 database: visitor-record changes are rare
// (registration, deregistration, handover, accuracy change only), so a
// simple synchronous log keeps forwarding paths and registrations durable.
// Rare is not free: the commute_updates benchmark registers 40 000 objects
// at three appends each (the leaf's registration log, then two forwarding
// logs), so Append encodes into one buffer it keeps and a visitor append
// allocates nothing and costs one write. A visitor log is compacted at
// open: when its replay went through more than its live set plus
// walCompactSlack records, NewVisitorDB and a leaf's Recover rewrite it to
// one put per live record (CompactRecords), so a restart replays the live
// set, not the history. It also serves as the per-shard segment of a
// ShardedWAL, where batch framing keeps the sighting update path cheap.
type FileWAL struct {
	mu   sync.Mutex
	path string
	f    *os.File
	// buf is the encode buffer Append reuses, so an append allocates
	// nothing; each append is one write straight from it.
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

// OpenFileWAL opens (creating if needed) the log at path. It writes the
// header into a new or empty file, and completes one a crash cut short; a
// file with any other start — a JSON-lines log an earlier build wrote — is
// refused, untouched. It removes the log's own rewrite temporaries a crash
// left behind (see rewriteTempPrefix), and nothing else in the directory.
func OpenFileWAL(path string, opts ...FileWALOption) (*FileWAL, error) {
	missing, err := checkLogHeader(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening WAL %s: %w", path, err)
	}
	sweepRewriteTemps(path)
	if _, err := f.WriteString(walHeader[len(walHeader)-missing:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: writing WAL header of %s: %w", path, err)
	}
	w := &FileWAL{path: path, f: f}
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

// checkLogHeader reads the start of the log file at path. A missing file or
// a prefix of the header — an empty file, or one a crash cut short while
// creating it — is accepted, and missing says how many header bytes remain
// to be written. A file an earlier build wrote in JSON lines, or anything
// else, is refused with the file named.
func checkLogHeader(path string) (missing int, err error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return len(walHeader), nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: opening WAL %s: %w", path, err)
	}
	defer f.Close()
	var head [len(walHeader)]byte
	n, err := io.ReadFull(f, head[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return 0, fmt.Errorf("store: reading WAL header of %s: %w", path, err)
	}
	switch {
	case n > 0 && head[0] == '{':
		return 0, fmt.Errorf("store: log %s is in the JSON-lines format an earlier build wrote; this build reads only %s logs", path, walHeader)
	case string(head[:n]) != walHeader[:n]:
		return 0, fmt.Errorf("store: log %s starts with %q, not the %s header", path, head[:n], walHeader)
	}
	return len(walHeader) - n, nil
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

// Replay implements WAL. A frame or payload cut short by the end of the
// file — the torn tail a crash mid-append leaves — is ignored AND truncated
// away, so later appends start on a record boundary. A complete record that
// fails its length check, its CRC or decoding is corruption and yields an
// error wrapping ErrCorruptWAL with the record's byte offset, after fn has
// received the intact prefix; the file is left as it is.
func (w *FileWAL) Replay(fn func(WALRecord) error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	st, err := w.f.Stat()
	if err != nil {
		return fmt.Errorf("store: sizing WAL %s: %w", w.path, err)
	}
	end, offset := st.Size(), int64(len(walHeader))
	if _, err := w.f.Seek(offset, io.SeekStart); err != nil {
		return fmt.Errorf("store: seeking WAL: %w", err)
	}
	// Always leave the file positioned at the end for later appends,
	// whatever path returns.
	defer w.f.Seek(0, io.SeekEnd)
	r := bufio.NewReaderSize(w.f, 64*1024)
	corrupt := func(what error) error {
		return fmt.Errorf("%w at offset %d of %s: %v", ErrCorruptWAL, offset, w.path, what)
	}
	var frame [walFrameSize]byte
	var payload []byte
	for offset < end {
		n := min(end-offset, walFrameSize)
		if _, err := io.ReadFull(r, frame[:n]); err != nil {
			return fmt.Errorf("store: reading WAL at offset %d: %w", offset, err)
		}
		size := int64(binary.LittleEndian.Uint32(frame[:]))
		if n == walFrameSize && crc32.ChecksumIEEE(frame[:4]) != binary.LittleEndian.Uint32(frame[4:]) {
			return corrupt(errors.New("damaged length"))
		}
		if n < walFrameSize || end-offset-walFrameSize < size {
			// The torn tail: cut it so appends resume on a record boundary.
			if err := w.f.Truncate(offset); err != nil {
				return fmt.Errorf("store: truncating torn WAL tail at offset %d: %w", offset, err)
			}
			return nil
		}
		if int64(cap(payload)) < size {
			payload = make([]byte, size)
		}
		payload = payload[:size]
		if _, err := io.ReadFull(r, payload); err != nil {
			return fmt.Errorf("store: reading WAL at offset %d: %w", offset, err)
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame[8:]) {
			return corrupt(errors.New("payload checksum mismatch"))
		}
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return corrupt(err)
		}
		if err := fn(rec); err != nil {
			return err
		}
		offset += walFrameSize + size
	}
	return nil
}

// Append implements WAL.
func (w *FileWAL) Append(rec WALRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	buf, err := appendWALRecord(w.buf[:0], rec)
	if err != nil {
		return err
	}
	w.buf = buf
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("store: writing WAL record: %w", err)
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("store: syncing WAL: %w", err)
		}
	}
	return nil
}

// rewriteTempPrefix starts the name of every temporary CompactRecords
// writes for the log at path: a dot, the log's file name and ".rewrite-".
// Several logs share a directory (every server's visitor log sits in one
// WAL directory), so a log's temporaries carry its name and OpenFileWAL
// sweeps only its own. They are never read back.
func rewriteTempPrefix(path string) string {
	return "." + filepath.Base(path) + ".rewrite-"
}

// sweepRewriteTemps removes the temporaries a crash inside CompactRecords
// left beside the log at path. They were never renamed into place, so they
// carry no authority, and one that cannot be listed or removed is only
// garbage: the sweep is best effort and never fails the open.
func sweepRewriteTemps(path string) {
	dir, prefix := filepath.Dir(path), rewriteTempPrefix(path)
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), prefix) {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// CompactRecords atomically replaces the log's contents with recs, in
// order, by the write-temp/fsync/rename/dir-fsync protocol (see the
// crash-ordering note in the package comment). The temporary's file handle
// becomes the new append handle, so no reopen can fail after the swap.
// Every failure before the rename removes the temporary and leaves the
// original log untouched, open and usable for further appends — a crash
// anywhere before the rename loses nothing but the compaction.
func (w *FileWAL) CompactRecords(recs []WALRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	tmp, err := os.CreateTemp(filepath.Dir(w.path), rewriteTempPrefix(w.path)+"*")
	if err != nil {
		return fmt.Errorf("store: creating segment rewrite file: %w", err)
	}
	abort := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	buf := []byte(walHeader)
	for _, rec := range recs {
		if buf, err = appendWALRecord(buf, rec); err != nil {
			return abort(err)
		}
	}
	if _, err := tmp.Write(buf); err != nil {
		return abort(fmt.Errorf("store: writing segment rewrite: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return abort(fmt.Errorf("store: syncing segment rewrite: %w", err))
	}
	if err := os.Rename(tmp.Name(), w.path); err != nil {
		return abort(fmt.Errorf("store: renaming rewritten segment: %w", err))
	}
	// The rename is the commit point: the temporary's handle now refers to
	// the log, so adopt it and retire the old handle. Errors past this
	// point cannot un-commit anything, so they are only reported.
	old := w.f
	w.f = tmp
	// The directory fsync makes the rename itself durable, with or without
	// WithSync: without it a machine crash could revert the directory entry
	// to the old inode and orphan every later fsynced append.
	errs := []error{syncDir(w.path)}
	if err := old.Close(); err != nil {
		errs = append(errs, fmt.Errorf("store: closing pre-compaction WAL handle: %w", err))
	}
	return errors.Join(errs...)
}

// Close implements WAL.
func (w *FileWAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}
