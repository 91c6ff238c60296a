package server

import (
	"fmt"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/spatial"
	"locsvc/internal/store"
)

// VisitorForTest exposes visitor records to black-box tests: an inner
// server's forwarding record, a leaf's registration (ForwardRef empty).
func (s *Server) VisitorForTest(oid core.OID) (store.VisitorRecord, bool) {
	if s.sightings == nil {
		return s.visitors.Get(oid)
	}
	reg, ok := s.sightings.Registration(oid)
	return store.VisitorRecord{OID: oid, OfferedAcc: reg.OfferedAcc, RegInfo: reg.RegInfo, PathT: reg.PathT}, ok
}

// EventSubCountForTest exposes the number of locally installed event
// subscriptions.
func (s *Server) EventSubCountForTest() int {
	s.events.mu.Lock()
	defer s.events.mu.Unlock()
	return len(s.events.local)
}

// EventCoordTotalForTest exposes a coordinated subscription's aggregated
// count and predicate state.
func (s *Server) EventCoordTotalForTest(subID string) (total int, fired bool, ok bool) {
	s.events.mu.Lock()
	defer s.events.mu.Unlock()
	cs, ok := s.events.coord[subID]
	if !ok {
		return 0, false, false
	}
	return cs.total, cs.fired, true
}

// EventLocalCountForTest exposes a leaf subscription's last reported
// local count.
func (s *Server) EventLocalCountForTest(subID string) (int, bool) {
	s.events.mu.Lock()
	defer s.events.mu.Unlock()
	ls, ok := s.events.local[subID]
	if !ok {
		return 0, false
	}
	return ls.lastCount, true
}

// EventMeetingPairsForTest exposes a meeting subscription's
// currently-meeting pair set on this leaf (each pair ordered a <= b).
func (s *Server) EventMeetingPairsForTest(subID string) [][2]core.OID {
	s.events.mu.Lock()
	defer s.events.mu.Unlock()
	ls, ok := s.events.local[subID]
	if !ok {
		return nil
	}
	out := make([][2]core.OID, 0, len(ls.firedPairs))
	for k := range ls.firedPairs {
		out = append(out, [2]core.OID{k.a, k.b})
	}
	return out
}

// LocalRangeForTest runs this leaf's own range evaluation, as the leaf half
// of Algorithm 6-5 does.
func (s *Server) LocalRangeForTest(area core.Area, reqAcc, reqOverlap float64) []core.Entry {
	return s.localRangeResult(area, reqAcc, reqOverlap)
}

// OracleEntriesForTest joins the sightings with the registrations by brute
// force: every stored sighting whose object is registered, as the entry a
// query would report for it.
func (s *Server) OracleEntriesForTest() []core.Entry {
	var sightings []core.Sighting
	s.sightings.ForEach(func(sight core.Sighting) bool {
		sightings = append(sightings, sight)
		return true
	})
	var out []core.Entry
	for _, sight := range sightings {
		if reg, ok := s.sightings.Registration(sight.OID); ok {
			out = append(out, core.Entry{OID: sight.OID, LD: core.LocationDescriptor{Pos: sight.Pos, Acc: reg.OfferedAcc}})
		}
	}
	return out
}

// CoveringEntriesForTest walks every index entry of the sightingDB, from
// the memtable and from the runs, and checks the covering-entry
// invariant: the entry of a registered object carries its registration's
// current OfferedAcc, the entry of an unregistered one AccUnknown. It
// returns how many entries carry an accuracy and a description of every
// violation.
func (s *Server) CoveringEntriesForTest() (annotated int, violations []string) {
	world := s.rootArea.Bounds().Enlarge(1e6)
	accs := map[core.OID]float64{}
	s.sightings.SearchBuckets(world, func(items []spatial.Item, _ geo.Rect, inside bool) bool {
		for _, it := range items {
			if inside || world.ContainsClosed(it.Pos) {
				accs[it.ID] = it.Acc
			}
		}
		return true
	})
	for id, acc := range accs {
		if acc != store.AccUnknown {
			annotated++
		}
		if reg, ok := s.sightings.Registration(id); !ok && acc != store.AccUnknown {
			violations = append(violations, fmt.Sprintf("%s: entry carries %v, no registration", id, acc))
		} else if ok && reg.OfferedAcc != acc {
			violations = append(violations, fmt.Sprintf("%s: entry carries %v, registration offers %v", id, acc, reg.OfferedAcc))
		}
	}
	return annotated, violations
}

// SightingsForTest exposes the sighting store (to read its tier
// statistics); nil on a non-leaf server.
func (s *Server) SightingsForTest() *store.ShardedSightingDB { return s.sightings }

// JanitorTickForTest runs one round of the leaf's periodic maintenance; for
// servers deployed without a JanitorInterval, so no janitor runs beside it.
func (s *Server) JanitorTickForTest() { s.janitorTick() }

// DedupeIdleForTest is how long a sender stays silent before a janitor
// tick drops its retry-dedupe window.
const DedupeIdleForTest = dedupeIdle

// PathReassertIntervalForTest is the cadence at which a path message whose
// retry budget is spent is sent again.
const PathReassertIntervalForTest = pathReassertInterval

// RaceEnabledForTest reports whether the race detector instruments this
// test binary.
const RaceEnabledForTest = raceEnabled
