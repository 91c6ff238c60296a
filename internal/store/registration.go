package store

import (
	"fmt"
	"maps"
	"time"

	"locsvc/internal/core"
)

// Registration is a leaf's visitor record (Section 5): the registration
// information, the accuracy offered for it and the timestamp of the sighting
// that installed it, kept next to the memtable under the shard lock.
type Registration struct {
	RegInfo    core.RegInfo
	OfferedAcc float64
	PathT      time.Time
}

// record returns id's registration in its log form.
func (reg Registration) record(id core.OID) VisitorRecord {
	return VisitorRecord{OID: id, OfferedAcc: reg.OfferedAcc, RegInfo: reg.RegInfo, PathT: reg.PathT}
}

// WithRegistrationLog persists the registrations through log (WALPut and
// WALRemove records), appended under the shard lock before a change
// applies and replayed by Recover. The caller closes the log.
func WithRegistrationLog(log WAL) SightingDBOption {
	return func(c *sightingConfig) { c.regLog = log }
}

// regAcc is the accuracy id's index entry carries. Caller holds the shard
// lock.
func (sh *sightingShard) regAcc(id core.OID) float64 {
	if reg, ok := sh.regs[id]; ok {
		return reg.OfferedAcc
	}
	return AccUnknown
}

// setAccLocked rewrites the accuracy on id's memtable entry. Caller holds
// the shard's write lock.
func (sh *sightingShard) setAccLocked(id core.OID, acc float64) {
	e, ok := sh.byID[id]
	if !ok || e.acc == acc {
		return
	}
	// Same position, so the shard's bounding rectangle stands.
	sh.idx.Remove(id, e.s.Pos)
	e = &sightingEntry{s: e.s, expires: e.expires, acc: acc}
	sh.byID[id] = e
	sh.idx.InsertItem(e.item())
}

// changeRegLocked makes reg id's registration, or removes it when reg is
// nil: it logs the change (and queues it for the replication tee), applies
// it under the registration lock and brings the accuracy of id's memtable
// entry in line. A failed log append changes nothing. Caller holds the
// shard's write lock.
func (db *ShardedSightingDB) changeRegLocked(sh *sightingShard, shard int, id core.OID, reg *Registration) error {
	rec, acc := WALRecord{Op: WALRemove, Visitor: &VisitorRecord{OID: id}}, float64(AccUnknown)
	if reg != nil {
		v := reg.record(id)
		rec = WALRecord{Op: WALPut, Visitor: &v}
		acc = reg.OfferedAcc
	}
	if db.regLog != nil {
		if err := db.regLog.Append(rec); err != nil {
			return fmt.Errorf("store: appending registration of %s: %w", id, err)
		}
	}
	if db.wal != nil {
		db.wal.appendRegistration(shard, rec)
	}
	sh.regMu.Lock()
	if reg != nil {
		sh.regs[id] = *reg
	} else {
		delete(sh.regs, id)
	}
	sh.regMu.Unlock()
	sh.setAccLocked(id, acc)
	return nil
}

// Register installs the registration of s's object and the sighting under
// one shard lock, logging both: registration (Algorithm 6-1) and handover
// arrival (6-3). It returns the sighting's delta.
func (db *ShardedSightingDB) Register(s core.Sighting, reg Registration) (Delta, error) {
	sh, i := db.lockOwner(s.OID)
	defer sh.mu.Unlock()
	if err := db.changeRegLocked(sh, i, s.OID, &reg); err != nil {
		return Delta{}, err
	}
	return db.putOneLocked(sh, i, s), nil
}

// PutRegistration makes reg id's registration: how a standby applies a
// replicated registration change.
func (db *ShardedSightingDB) PutRegistration(id core.OID, reg Registration) error {
	sh, i := db.lockOwner(id)
	defer sh.mu.Unlock()
	return db.changeRegLocked(sh, i, id, &reg)
}

// UpdateRegistration lets change edit id's registration and, if change
// reports true, installs the edit. change runs under the shard lock, so the
// read and the write are one step (an accuracy change, Section 3.1); it
// must not block or call into the store. It reports whether id is
// registered.
func (db *ShardedSightingDB) UpdateRegistration(id core.OID, change func(reg *Registration) bool) (bool, error) {
	sh, i := db.lockOwner(id)
	defer sh.mu.Unlock()
	reg, ok := sh.regs[id]
	if !ok || !change(&reg) {
		return ok, nil
	}
	return true, db.changeRegLocked(sh, i, id, &reg)
}

// Deregister removes id's sighting and registration, whichever the store
// holds, under one shard lock: deregistration, handover departure and
// expiry. With expiredOnly it acts only if the sighting's TTL has passed
// with the lock held, so the janitor acting on a stale Expired scan cannot
// tear down a refreshed object. ok reports that it removed something; gone
// is the sighting's removal delta and lastT its timestamp, both zero when
// there was no sighting (a run-resident one goes by memtable tombstone).
func (db *ShardedSightingDB) Deregister(id core.OID, expiredOnly bool) (gone Delta, lastT time.Time, ok bool, err error) {
	sh, i := db.lockOwner(id)
	defer sh.mu.Unlock()
	e, hot, found := db.lookupLocked(sh, id)
	_, registered := sh.regs[id]
	expired := found && db.ttl > 0 && !e.expires.IsZero() && db.clock().After(e.expires)
	if expiredOnly && !expired || !found && !registered {
		return Delta{}, time.Time{}, false, nil
	}
	if found {
		db.removeLocked(sh, i, id, e.s.Pos, hot)
		gone, lastT = removeDelta(id, &e), e.s.T
	}
	if registered {
		err = db.changeRegLocked(sh, i, id, nil)
	}
	return gone, lastT, true, err
}

// Registration returns id's registration, read under the shard's
// registration lock alone (see sightingShard.regs).
func (db *ShardedSightingDB) Registration(id core.OID) (Registration, bool) {
	sh := db.shards[db.ShardFor(id)]
	sh.regMu.RLock()
	defer sh.regMu.RUnlock()
	reg, ok := sh.regs[id]
	return reg, ok
}

// Lookup returns id's registration and sighting, read under one shard lock.
func (db *ShardedSightingDB) Lookup(id core.OID) (reg Registration, s core.Sighting, registered, sighted bool) {
	sh := db.shards[db.ShardFor(id)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	reg, registered = sh.regs[id]
	e, _, sighted := db.lookupLocked(sh, id)
	return reg, e.s, registered, sighted
}

// Registrations returns a copy of every registration.
func (db *ShardedSightingDB) Registrations() map[core.OID]Registration {
	out := make(map[core.OID]Registration)
	for _, sh := range db.shards {
		sh.regMu.RLock()
		maps.Copy(out, sh.regs)
		sh.regMu.RUnlock()
	}
	return out
}

// RegistrationCount returns the number of registrations.
func (db *ShardedSightingDB) RegistrationCount() int {
	n := 0
	for _, sh := range db.shards {
		sh.regMu.RLock()
		n += len(sh.regs)
		sh.regMu.RUnlock()
	}
	return n
}

// replayRegistrations loads the registration log into the shards' tables,
// on a store not yet shared.
func (db *ShardedSightingDB) replayRegistrations() error {
	if db.regLog == nil {
		return nil
	}
	replayed, err := replayVisitors(db.regLog, func(rec VisitorRecord) {
		db.shards[db.ShardFor(rec.OID)].regs[rec.OID] = Registration{RegInfo: rec.RegInfo, OfferedAcc: rec.OfferedAcc, PathT: rec.PathT}
	}, func(id core.OID) {
		delete(db.shards[db.ShardFor(id)].regs, id)
	})
	if err != nil {
		return fmt.Errorf("store: replaying the registration log: %w", err)
	}
	live := 0
	for _, sh := range db.shards {
		live += len(sh.regs)
	}
	compactVisitorLog(db.regLog, replayed, live, func() []VisitorRecord {
		vs := make([]VisitorRecord, 0, live)
		for _, sh := range db.shards {
			for id, reg := range sh.regs {
				vs = append(vs, reg.record(id))
			}
		}
		return vs
	})
	return nil
}
