package store

import (
	"fmt"
	"sync"
	"time"

	"locsvc/internal/core"
)

// VisitorRecord is one entry of a server's visitorDB (paper Section 5).
// On a non-leaf server only ForwardRef is meaningful: it names the child
// server next on the path to the visitor's agent. A leaf keeps its visitor
// records as Registrations in the sighting store and writes them to its
// registration log in this form, ForwardRef empty and OfferedAcc/RegInfo
// describing the registration.
type VisitorRecord struct {
	OID core.OID `json:"oid"`
	// ForwardRef is the child server id on the path towards the agent;
	// empty on leaf servers.
	ForwardRef string `json:"forwardRef,omitempty"`
	// OfferedAcc is the accuracy currently offered for this visitor
	// (leaf servers only).
	OfferedAcc float64 `json:"offeredAcc,omitempty"`
	// RegInfo is the registration information record (leaf servers only).
	RegInfo core.RegInfo `json:"regInfo,omitempty"`
	// PathT is the timestamp of the sighting that installed this record;
	// path-maintenance messages carrying older sighting times are
	// ignored (see internal/server, handleRemovePath/handleCreatePath).
	PathT time.Time `json:"pathT,omitempty"`
}

// VisitorDB is an inner server's forwarding table: its visitor records,
// optionally persisted through a WAL so forwarding paths survive crashes
// (the paper keeps the visitorDB on persistent storage, updated only on
// registration, deregistration and handover). It is safe for concurrent
// use.
type VisitorDB struct {
	mu   sync.RWMutex
	recs map[core.OID]VisitorRecord
	wal  WAL
}

// NewVisitorDB returns a visitor database backed by wal. Pass NullWAL{} for
// a purely in-memory database. Existing WAL contents are replayed, so
// opening a VisitorDB on a non-empty log restores the pre-crash records.
func NewVisitorDB(wal WAL) (*VisitorDB, error) {
	if wal == nil {
		wal = NullWAL{}
	}
	db := &VisitorDB{recs: make(map[core.OID]VisitorRecord), wal: wal}
	err := wal.Replay(func(rec WALRecord) error {
		if rec.Visitor == nil && (rec.Op == WALPut || rec.Op == WALRemove) {
			return fmt.Errorf("store: visitor WAL record %q without visitor payload", rec.Op)
		}
		switch rec.Op {
		case WALPut:
			db.recs[rec.Visitor.OID] = *rec.Visitor
		case WALRemove:
			delete(db.recs, rec.Visitor.OID)
		default:
			return fmt.Errorf("store: unknown WAL op %q in visitor WAL", rec.Op)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: replaying visitor WAL: %w", err)
	}
	return db, nil
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
	rec, ok := db.recs[id]
	return rec, ok
}

// Put inserts or replaces a record and appends the change to the WAL.
func (db *VisitorDB) Put(rec VisitorRecord) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.wal.Append(WALRecord{Op: WALPut, Visitor: &rec}); err != nil {
		return fmt.Errorf("store: appending visitor put: %w", err)
	}
	db.recs[rec.OID] = rec
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
	if old, ok := db.recs[rec.OID]; ok && old.PathT.After(rec.PathT) {
		return false, nil
	}
	if err := db.wal.Append(WALRecord{Op: WALPut, Visitor: &rec}); err != nil {
		return false, fmt.Errorf("store: appending visitor put: %w", err)
	}
	db.recs[rec.OID] = rec
	return true, nil
}

// RemoveIf deletes the record for id only if pred accepts the current
// record, atomically. It reports whether a removal happened.
func (db *VisitorDB) RemoveIf(id core.OID, pred func(VisitorRecord) bool) (bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	rec, ok := db.recs[id]
	if !ok || !pred(rec) {
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

// ForEach visits every record in unspecified order.
func (db *VisitorDB) ForEach(visit func(rec VisitorRecord) bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, rec := range db.recs {
		if !visit(rec) {
			return
		}
	}
}

// RewriteForward repoints every record whose ForwardRef is old to new —
// the parent-side rebind after a child failover — logging each rewrite.
// It returns how many records changed; on a WAL failure the already
// rewritten records stay rewritten and the error is reported.
func (db *VisitorDB) RewriteForward(old, new string) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	n := 0
	for id, rec := range db.recs {
		if rec.ForwardRef != old {
			continue
		}
		rec.ForwardRef = new
		if err := db.wal.Append(WALRecord{Op: WALPut, Visitor: &rec}); err != nil {
			return n, fmt.Errorf("store: appending forward rewrite: %w", err)
		}
		db.recs[id] = rec
		n++
	}
	return n, nil
}

// Close releases the underlying WAL.
func (db *VisitorDB) Close() error {
	return db.wal.Close()
}
