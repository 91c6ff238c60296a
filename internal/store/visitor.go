package store

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"locsvc/internal/core"
)

// VisitorRecord is the log and API form of a visitor record (paper
// Section 5): what a VisitorDB logs and returns, and what a
// leaf's registration log holds. An inner server's forwarding table keeps
// only a child slot and an int64 PathT per object; in its records only
// ForwardRef and PathT are meaningful. A leaf keeps its visitor records as
// Registrations in the sighting store and logs them in this form,
// ForwardRef empty and OfferedAcc/RegInfo describing the registration.
type VisitorRecord struct {
	OID core.OID
	// ForwardRef is the child server id on the path towards the agent;
	// empty on leaf servers.
	ForwardRef string
	// OfferedAcc is the accuracy currently offered for this visitor
	// (leaf servers only).
	OfferedAcc float64
	// RegInfo is the registration information record (leaf servers only).
	RegInfo core.RegInfo
	// PathT is the timestamp of the sighting that installed this record;
	// path-maintenance messages carrying older sighting times are
	// ignored (see internal/server, handleRemovePath/handleCreatePath).
	PathT time.Time
}

// fwd is one forwarding record in memory: the slot of the child next on the
// path to the agent, and PathT as wall-clock nanoseconds (zeroNanos for the
// zero Time, whose UnixNano is undefined).
type fwd struct {
	child uint32
	pathT int64
}

// zeroNanos stands for a zero Time wherever the store keeps an instant as
// wall-clock nanoseconds: a PathT, a sighting's T, an expiry.
const zeroNanos = math.MinInt64

func unixNanos(t time.Time) int64 {
	if t.IsZero() {
		return zeroNanos
	}
	return t.UnixNano()
}

func unixTime(ns int64) time.Time {
	if ns == zeroNanos {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// VisitorDB is an inner server's forwarding table (paper Section 5,
// Algorithm 6-1's createPath): a child slot and an int64 PathT per object;
// VisitorRecord is its log and API form. It is optionally persisted through
// a WAL so forwarding paths survive crashes (the paper keeps the visitorDB
// on persistent storage, updated only on registration, deregistration and
// handover). A leaf keeps no VisitorDB; its visitor records live in the
// sighting store (Registration).
//
// PathT is kept as wall-clock nanoseconds, so the table compares and
// returns it without its monotonic clock reading, as the wire and the log
// already do; Get returns it in UTC. It is safe for concurrent use.
type VisitorDB struct {
	mu   sync.RWMutex
	recs map[core.OID]fwd
	// children holds the child ids the records name, in the order they
	// first appeared: the server's children, and any other id a replayed
	// log names (an earlier build's failover logged its standbys' ids). A
	// handful at most, so a slot is found by a linear scan.
	children []string
	wal      WAL
}

// NewVisitorDB returns a visitor database backed by wal. Pass NullWAL{} for
// a purely in-memory database. Existing WAL contents are replayed, so
// opening a VisitorDB on a non-empty log restores the pre-crash records.
func NewVisitorDB(wal WAL) (*VisitorDB, error) {
	if wal == nil {
		wal = NullWAL{}
	}
	db := &VisitorDB{recs: make(map[core.OID]fwd), wal: wal}
	replayed, err := replayVisitors(wal, db.set, func(id core.OID) { delete(db.recs, id) })
	if err != nil {
		return nil, fmt.Errorf("store: replaying visitor WAL: %w", err)
	}
	compactVisitorLog(wal, replayed, len(db.recs), func() []VisitorRecord {
		live := make([]VisitorRecord, 0, len(db.recs))
		for id, f := range db.recs {
			live = append(live, db.record(id, f))
		}
		return live
	})
	return db, nil
}

// replayVisitors applies every put and remove record of log, oldest first,
// and returns how many it applied.
func replayVisitors(log WAL, put func(VisitorRecord), remove func(core.OID)) (int, error) {
	n := 0
	err := log.Replay(func(rec WALRecord) error {
		if rec.Visitor == nil && (rec.Op == WALPut || rec.Op == WALRemove) {
			return fmt.Errorf("store: visitor WAL record %q without visitor payload", rec.Op)
		}
		switch rec.Op {
		case WALPut:
			put(*rec.Visitor)
		case WALRemove:
			remove(rec.Visitor.OID)
		default:
			return fmt.Errorf("store: unknown WAL op %q in visitor WAL", rec.Op)
		}
		n++
		return nil
	})
	return n, err
}

// compactVisitorLog rewrites log to one put per live record when its
// replay applied more than live + walCompactSlack records, so the next open
// replays the live set rather than every change ever logged — the rule the
// sighting segments follow at recovery. records lists the live set; it is
// called only when the log is rewritten. Best-effort like that rule: a
// failed rewrite leaves the original log, which is still correct.
func compactVisitorLog(log WAL, replayed, live int, records func() []VisitorRecord) {
	if replayed <= live+walCompactSlack {
		return
	}
	vs := records()
	recs := make([]WALRecord, len(vs))
	for i := range vs {
		recs[i] = WALRecord{Op: WALPut, Visitor: &vs[i]}
	}
	_ = log.CompactRecords(recs)
}

// slot returns the index of child in db.children, adding it if new. Caller
// holds the write lock.
func (db *VisitorDB) slot(child string) uint32 {
	i := slices.Index(db.children, child)
	if i < 0 {
		i = len(db.children)
		db.children = append(db.children, child)
	}
	return uint32(i)
}

// set stores rec's forwarding record. Caller holds the write lock.
func (db *VisitorDB) set(rec VisitorRecord) {
	db.recs[rec.OID] = fwd{child: db.slot(rec.ForwardRef), pathT: unixNanos(rec.PathT)}
}

// record returns f in its API form. Caller holds the lock.
func (db *VisitorDB) record(id core.OID, f fwd) VisitorRecord {
	return VisitorRecord{OID: id, ForwardRef: db.children[f.child], PathT: unixTime(f.pathT)}
}

// Len returns the number of visitor records.
func (db *VisitorDB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.recs)
}

// Get returns the record for id.
func (db *VisitorDB) Get(id core.OID) (VisitorRecord, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	f, ok := db.recs[id]
	if !ok {
		return VisitorRecord{}, false
	}
	return db.record(id, f), true
}

// Forward returns the child id id's record forwards to.
func (db *VisitorDB) Forward(id core.OID) (string, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	f, ok := db.recs[id]
	if !ok {
		return "", false
	}
	return db.children[f.child], true
}

// Put inserts or replaces a record and appends the change to the WAL.
func (db *VisitorDB) Put(rec VisitorRecord) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.wal.Append(WALRecord{Op: WALPut, Visitor: &rec}); err != nil {
		return fmt.Errorf("store: appending visitor put: %w", err)
	}
	db.set(rec)
	return nil
}

// PutIfNewer inserts or replaces a record unless an existing record carries
// a strictly newer PathT. The check and the write happen under one lock
// acquisition: path-maintenance messages are processed concurrently, and a
// separate Get-then-Put would let a stale write land after a fresh one.
// It reports whether the record was applied.
func (db *VisitorDB) PutIfNewer(rec VisitorRecord) (bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if old, ok := db.recs[rec.OID]; ok && old.pathT > unixNanos(rec.PathT) {
		return false, nil
	}
	if err := db.wal.Append(WALRecord{Op: WALPut, Visitor: &rec}); err != nil {
		return false, fmt.Errorf("store: appending visitor put: %w", err)
	}
	db.set(rec)
	return true, nil
}

// RemoveIf deletes the record for id only if pred accepts the current
// record, atomically. It reports whether a removal happened.
func (db *VisitorDB) RemoveIf(id core.OID, pred func(VisitorRecord) bool) (bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	f, ok := db.recs[id]
	if !ok || !pred(db.record(id, f)) {
		return false, nil
	}
	if err := db.wal.Append(WALRecord{Op: WALRemove, Visitor: &VisitorRecord{OID: id}}); err != nil {
		return false, fmt.Errorf("store: appending visitor remove: %w", err)
	}
	delete(db.recs, id)
	return true, nil
}

// Remove deletes the record for id, logging the removal. It reports whether
// a record existed.
func (db *VisitorDB) Remove(id core.OID) (bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.recs[id]; !ok {
		return false, nil
	}
	if err := db.wal.Append(WALRecord{Op: WALRemove, Visitor: &VisitorRecord{OID: id}}); err != nil {
		return false, fmt.Errorf("store: appending visitor remove: %w", err)
	}
	delete(db.recs, id)
	return true, nil
}

// Close releases the underlying WAL.
func (db *VisitorDB) Close() error {
	return db.wal.Close()
}
