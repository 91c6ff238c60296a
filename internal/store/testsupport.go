package store

// Test support: the one-record put and the full scan that only tests call.
// No binary links them; TestEveryFunctionReached exempts this file. Each
// names a soak or parity test that drives it.

import "locsvc/internal/core"

// Put inserts or replaces the record for s.OID and refreshes its
// expiration date: the one-record form of PutBatch. TestTieredSoak and
// TestTieredOracleParity load the store through it.
func (db *ShardedSightingDB) Put(s core.Sighting) {
	db.putOne(s, nil)
}

// ForEach visits every stored sighting in unspecified order.
// TestTieredOracleParity compares the whole store against its oracle
// through it.
func (db *ShardedSightingDB) ForEach(visit func(s core.Sighting) bool) {
	for _, sh := range db.shards {
		stopped := false
		sh.mu.RLock()
		sh.eachMem(func(id core.OID, o *object) bool {
			stopped = o.mem == memSighting && !visit(o.sighting(id))
			return !stopped
		})
		if !stopped && sh.tier != nil {
			stopped = !sh.tierScanAll(db.tier, func(rec runRecord) bool {
				return visit(rec.s)
			})
		}
		sh.mu.RUnlock()
		if stopped {
			return
		}
	}
}

// PutRegistration makes reg id's registration, logged like Register's but
// without a sighting. TestRegistrationOracle and TestLeafLogFixture write
// registrations through it.
func (db *ShardedSightingDB) PutRegistration(id core.OID, reg Registration) error {
	sh, _ := db.lockOwner(id)
	defer sh.mu.Unlock()
	return db.changeRegLocked(sh, id, &reg)
}
