package server

import (
	"sync"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
)

// leafCaches bundles the three caching mechanisms of Section 6.5, all kept
// on leaf servers:
//
//  1. (leaf server → service area): learned from LeafInfo piggybacked on
//     protocol messages; lets a range query fan out to the leaves it covers
//     without the tree. It serves range queries only: handovers always climb
//     to the lowest common ancestor (Algorithm 6-3), because the paper's
//     leaf-to-leaf handover answered before the tree was re-pointed and left
//     position queries dead-ending at the root meanwhile.
//  2. (tracked object → current agent): learned from position query
//     responses; lets position queries go straight to the agent.
//  3. (tracked object → position descriptor): caches query results; aged
//     with the object's maximum speed before reuse.
type leafCaches struct {
	enableArea  bool
	enableAgent bool
	enablePos   bool

	mu     sync.RWMutex
	areas  map[msg.NodeID]core.Area
	agents map[core.OID]msg.NodeID
	pos    map[core.OID]posCacheEntry
}

type posCacheEntry struct {
	ld       core.LocationDescriptor
	storedAt time.Time
	maxSpeed float64
}

func newLeafCaches(opts Options) *leafCaches {
	return &leafCaches{
		enableArea:  opts.EnableAreaCache,
		enableAgent: opts.EnableAgentCache,
		enablePos:   opts.EnablePosCache,
		areas:       make(map[msg.NodeID]core.Area),
		agents:      make(map[core.OID]msg.NodeID),
		pos:         make(map[core.OID]posCacheEntry),
	}
}

// observeLeaf records a (leaf → area) mapping seen on a protocol message.
func (c *leafCaches) observeLeaf(li msg.LeafInfo) {
	if !c.enableArea || !li.Valid() {
		return
	}
	c.mu.Lock()
	c.areas[li.ID] = li.Area
	c.mu.Unlock()
}

// leavesCovering appends to ids the cached leaves overlapping the
// rectangle enlarged and reports whether their cached areas jointly cover
// at least expected of the query measure. Only a full cover lets the entry
// server skip the tree (Section 6.5: "determine the leaf server(s) for
// this area from its cache").
func (c *leafCaches) leavesCovering(ids []msg.NodeID, area core.Area, enlarged geo.Rect, expected float64, self msg.NodeID) ([]msg.NodeID, bool) {
	if !c.enableArea {
		return ids, false
	}
	if expected <= 0 {
		return ids, true
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	covered := 0.0
	for id, a := range c.areas {
		if id == self || !a.Bounds().Intersects(enlarged) {
			continue
		}
		ids = append(ids, id)
		covered += area.Vertices.IntersectRectArea(a.Bounds())
	}
	return ids, covered+1e-6*expected >= expected
}

// areaOf returns the cached service area of one leaf; used by degraded
// range queries to tally the query share of an unreachable cache-direct
// destination.
func (c *leafCaches) areaOf(id msg.NodeID) (core.Area, bool) {
	if !c.enableArea {
		return core.Area{}, false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	a, ok := c.areas[id]
	return a, ok
}

// observeAgent records an (object → agent) mapping.
func (c *leafCaches) observeAgent(oid core.OID, agent msg.NodeID) {
	if !c.enableAgent || agent == "" {
		return
	}
	c.mu.Lock()
	c.agents[oid] = agent
	c.mu.Unlock()
}

// agentFor returns the cached agent for oid.
func (c *leafCaches) agentFor(oid core.OID) (msg.NodeID, bool) {
	if !c.enableAgent {
		return "", false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	id, ok := c.agents[oid]
	return id, ok
}

// invalidateAgent drops a stale (object → agent) entry.
func (c *leafCaches) invalidateAgent(oid core.OID) {
	if !c.enableAgent {
		return
	}
	c.mu.Lock()
	delete(c.agents, oid)
	c.mu.Unlock()
}

// observePos caches a returned position descriptor.
func (c *leafCaches) observePos(oid core.OID, ld core.LocationDescriptor, maxSpeed float64, now time.Time) {
	if !c.enablePos {
		return
	}
	c.mu.Lock()
	c.pos[oid] = posCacheEntry{ld: ld, storedAt: now, maxSpeed: maxSpeed}
	c.mu.Unlock()
}

// posFor returns the cached descriptor for oid aged to now, if its aged
// accuracy still meets accBound (Section 6.5: reuse "provided the
// information is still accurate enough"). maxSpeed zero in the entry means
// the descriptor cannot be aged and is only served fresh.
func (c *leafCaches) posFor(oid core.OID, accBound float64, now time.Time) (core.LocationDescriptor, bool) {
	if !c.enablePos || accBound <= 0 {
		return core.LocationDescriptor{}, false
	}
	c.mu.RLock()
	e, ok := c.pos[oid]
	c.mu.RUnlock()
	if !ok {
		return core.LocationDescriptor{}, false
	}
	if e.maxSpeed <= 0 && now.After(e.storedAt) {
		return core.LocationDescriptor{}, false
	}
	aged := e.ld.Aged(e.storedAt, now, e.maxSpeed)
	if aged.Acc > accBound {
		return core.LocationDescriptor{}, false
	}
	return aged, true
}

// observeLeafInfo lets the server feed its caches from any message carrying
// leaf info.
func (s *Server) observeLeafInfo(li msg.LeafInfo) {
	s.caches.observeLeaf(li)
}
