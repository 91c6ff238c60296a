package store

import (
	"fmt"
	"time"

	"locsvc/internal/core"
)

// Registration is a leaf's visitor record (Section 5): the registration
// information, the accuracy offered for it and the timestamp of the sighting
// that installed it, kept on the object's record in the sighting store.
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

// changeRegLocked makes reg id's registration, or removes it when reg is
// nil: it logs the change, applies it and brings the accuracy of id's
// index entry in line. A failed log append changes nothing. Caller holds
// the shard's write lock.
func (db *ShardedSightingDB) changeRegLocked(sh *sightingShard, id core.OID, reg *Registration) error {
	rec := WALRecord{Op: WALRemove, Visitor: &VisitorRecord{OID: id}}
	if reg != nil {
		v := reg.record(id)
		rec = WALRecord{Op: WALPut, Visitor: &v}
	}
	if db.regLog != nil {
		if err := db.regLog.Append(rec); err != nil {
			return fmt.Errorf("store: appending registration of %s: %w", id, err)
		}
	}
	sh.setRegLocked(id, reg)
	return nil
}

// setRegLocked makes reg id's registration (nil removes it), re-indexing a
// memtable sighting whose accuracy changed. Caller holds the write lock.
func (sh *sightingShard) setRegLocked(id core.OID, reg *Registration) {
	o, spare := sh.objs[id], (*objectReg)(nil)
	if o == nil {
		if reg == nil {
			return
		}
		// An object a registration creates holds it in the same allocation.
		both := new(struct {
			object
			r objectReg
		})
		both.acc = AccUnknown
		o, spare = sh.insert(id, &both.object), &both.r
	}
	was := o.acc
	sh.regMu.Lock()
	if reg == nil {
		if o.reg != nil {
			sh.nreg--
		}
		o.reg, o.acc = nil, AccUnknown
	} else {
		if o.reg == nil {
			if spare == nil {
				spare = new(objectReg)
			}
			o.reg = spare
			sh.nreg++
		}
		*o.reg = objectReg{info: reg.RegInfo, pathT: unixNanos(reg.PathT)}
		o.acc = reg.OfferedAcc
	}
	sh.regMu.Unlock()
	sh.dropIfEmpty(id, o)
	if o.mem == memSighting && o.acc != was {
		// Same position, so the shard's bounding rectangle stands.
		sh.idx.Remove(id, o.pos)
		sh.idx.InsertItem(o.item(id))
	}
}

// Register installs the registration of s's object and the sighting under
// one shard lock, logging both: registration (Algorithm 6-1) and handover
// arrival (6-3). It returns the sighting's delta.
func (db *ShardedSightingDB) Register(s core.Sighting, reg Registration) (Delta, error) {
	sh, i := db.lockOwner(s.OID)
	defer sh.mu.Unlock()
	if err := db.changeRegLocked(sh, s.OID, &reg); err != nil {
		return Delta{}, err
	}
	return db.putOneLocked(sh, i, s), nil
}

// UpdateRegistration lets change edit id's registration and, if change
// reports true, installs the edit. change runs under the shard lock, so the
// read and the write are one step (an accuracy change, Section 3.1); it
// must not block or call into the store. It reports whether id is
// registered.
func (db *ShardedSightingDB) UpdateRegistration(id core.OID, change func(reg *Registration) bool) (bool, error) {
	sh, _ := db.lockOwner(id)
	defer sh.mu.Unlock()
	o := sh.objs[id]
	if o == nil || o.reg == nil {
		return false, nil
	}
	if reg := o.registration(); change(&reg) {
		return true, db.changeRegLocked(sh, id, &reg)
	}
	return true, nil
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
	o, s, expires, found := db.lookupLocked(sh, id)
	registered := o != nil && o.reg != nil
	if expiredOnly && !(found && db.expired(expires, db.clock())) || !found && !registered {
		return Delta{}, time.Time{}, false, nil
	}
	if found {
		if db.wal != nil {
			_ = db.wal.AppendRemove(i, id)
		}
		hot := o != nil && o.mem == memSighting
		if hot {
			sh.idx.Remove(id, o.pos)
		}
		if sh.tier != nil {
			sh.setMem(id, sh.obj(id), memTomb)
		} else {
			sh.setMem(id, o, memNone)
			sh.dropIfEmpty(id, o)
		}
		if hot {
			sh.noteRemove()
		}
		gone, lastT = Delta{Op: DeltaRemove, OID: id, Old: s.Pos, HasOld: true}, s.T
	}
	if registered {
		err = db.changeRegLocked(sh, id, nil)
	}
	return gone, lastT, true, err
}

// Registration returns id's registration, read under the shard's
// registration lock alone (see sightingShard.regMu).
func (db *ShardedSightingDB) Registration(id core.OID) (Registration, bool) {
	sh := db.shards[db.ShardFor(id)]
	sh.regMu.RLock()
	defer sh.regMu.RUnlock()
	if o := sh.objs[id]; o != nil && o.reg != nil {
		return o.registration(), true
	}
	return Registration{}, false
}

// Lookup returns id's registration and sighting, read under one shard lock.
func (db *ShardedSightingDB) Lookup(id core.OID) (reg Registration, s core.Sighting, registered, sighted bool) {
	sh := db.shards[db.ShardFor(id)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	o, s, _, sighted := db.lookupLocked(sh, id)
	if registered = o != nil && o.reg != nil; registered {
		reg = o.registration()
	}
	return reg, s, registered, sighted
}

// Registrations returns a copy of every registration.
func (db *ShardedSightingDB) Registrations() map[core.OID]Registration {
	out := make(map[core.OID]Registration)
	for _, sh := range db.shards {
		sh.regMu.RLock()
		for id, o := range sh.objs {
			if o.reg != nil {
				out[id] = o.registration()
			}
		}
		sh.regMu.RUnlock()
	}
	return out
}

// RegistrationCount returns the number of registrations.
func (db *ShardedSightingDB) RegistrationCount() int {
	n := 0
	for _, sh := range db.shards {
		sh.regMu.RLock()
		n += sh.nreg
		sh.regMu.RUnlock()
	}
	return n
}

// replayRegistrations loads the registration log into the shards, on a
// store not yet shared.
func (db *ShardedSightingDB) replayRegistrations() error {
	if db.regLog == nil {
		return nil
	}
	replayed, err := replayVisitors(db.regLog, func(rec VisitorRecord) {
		db.shards[db.ShardFor(rec.OID)].setRegLocked(rec.OID, &Registration{RegInfo: rec.RegInfo, OfferedAcc: rec.OfferedAcc, PathT: rec.PathT})
	}, func(id core.OID) {
		db.shards[db.ShardFor(id)].setRegLocked(id, nil)
	})
	if err != nil {
		return fmt.Errorf("store: replaying the registration log: %w", err)
	}
	live := db.RegistrationCount()
	compactVisitorLog(db.regLog, replayed, live, func() []VisitorRecord {
		vs := make([]VisitorRecord, 0, live)
		for id, reg := range db.Registrations() {
			vs = append(vs, reg.record(id))
		}
		return vs
	})
	return nil
}
