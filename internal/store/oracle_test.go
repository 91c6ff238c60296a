package store

import (
	"sort"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
)

// oracleStore is the brute-force model the parity tests check
// ShardedSightingDB against: a map from object id to (sighting, expiry), a
// linear scan for range queries and a full sort for nearest-neighbor
// streams. It shares no code with the store — only the exported types — and
// is not safe for concurrent use; tests feed it after quiescing.
type oracleStore struct {
	recs  map[core.OID]oracleRec
	ttl   time.Duration
	clock func() time.Time
}

type oracleRec struct {
	s       core.Sighting
	expires time.Time // zero when ttl is
}

// sightingQueries is the read surface the parity helpers compare a store
// and the oracle on.
type sightingQueries interface {
	Len() int
	SearchArea(r geo.Rect, visit func(s core.Sighting) bool)
	NearestFunc(p geo.Point, visit func(s core.Sighting, dist float64) bool)
	ForEach(visit func(s core.Sighting) bool)
}

// newOracle returns an empty oracle with no expiry.
func newOracle() *oracleStore { return newOracleTTL(0, time.Now) }

// newOracleTTL returns an empty oracle whose records expire ttl after their
// last put on clock; a zero ttl disables expiry.
func newOracleTTL(ttl time.Duration, clock func() time.Time) *oracleStore {
	return &oracleStore{recs: make(map[core.OID]oracleRec), ttl: ttl, clock: clock}
}

func (o *oracleStore) lease() time.Time {
	if o.ttl <= 0 {
		return time.Time{}
	}
	return o.clock().Add(o.ttl)
}

func (o *oracleStore) Len() int { return len(o.recs) }

func (o *oracleStore) Get(id core.OID) (core.Sighting, bool) {
	rec, ok := o.recs[id]
	return rec.s, ok
}

func (o *oracleStore) Put(s core.Sighting) {
	o.recs[s.OID] = oracleRec{s: s, expires: o.lease()}
}

func (o *oracleStore) PutAll(batch []core.Sighting) {
	for _, s := range batch {
		o.Put(s)
	}
}

func (o *oracleStore) Remove(id core.OID) bool {
	_, ok := o.recs[id]
	delete(o.recs, id)
	return ok
}

func (o *oracleStore) isExpired(rec oracleRec) bool {
	return !rec.expires.IsZero() && o.clock().After(rec.expires)
}

func (o *oracleStore) Expired() []core.OID {
	var out []core.OID
	for id, rec := range o.recs {
		if o.isExpired(rec) {
			out = append(out, id)
		}
	}
	return out
}

func (o *oracleStore) RemoveExpiredDelta(id core.OID) (Delta, bool) {
	rec, ok := o.recs[id]
	if !ok || !o.isExpired(rec) {
		return Delta{}, false
	}
	delete(o.recs, id)
	return Delta{Op: DeltaRemove, OID: id, Old: rec.s.Pos, HasOld: true}, true
}

func (o *oracleStore) ForEach(visit func(s core.Sighting) bool) {
	for _, rec := range o.recs {
		if !visit(rec.s) {
			return
		}
	}
}

func (o *oracleStore) SearchArea(r geo.Rect, visit func(s core.Sighting) bool) {
	o.ForEach(func(s core.Sighting) bool {
		return !r.ContainsClosed(s.Pos) || visit(s)
	})
}

func (o *oracleStore) NearestFunc(p geo.Point, visit func(s core.Sighting, dist float64) bool) {
	all := make([]core.Sighting, 0, len(o.recs))
	for _, rec := range o.recs {
		all = append(all, rec.s)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Pos.Dist(p) < all[j].Pos.Dist(p) })
	for _, s := range all {
		if !visit(s, s.Pos.Dist(p)) {
			return
		}
	}
}
