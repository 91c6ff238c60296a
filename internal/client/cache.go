package client

import (
	"context"
	"sync"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/msg"
)

// Client-side caching (Section 6.5: "similar caching mechanisms can be used
// on the clients of the LS"): a client can remember each queried object's
// agent — turning repeat position queries into a single direct call that
// bypasses even the entry server — and the returned position descriptors,
// aged with the object's maximum speed before reuse.

// clientCache holds the client-side caches; zero value is disabled.
type clientCache struct {
	enabled bool

	mu     sync.Mutex
	agents map[core.OID]msg.NodeID
	pos    map[core.OID]clientPosEntry
}

type clientPosEntry struct {
	ld       core.LocationDescriptor
	storedAt time.Time
	maxSpeed float64
}

// EnableCache turns on the client-side agent and position caches.
func (c *Client) EnableCache() {
	c.cache.mu.Lock()
	defer c.cache.mu.Unlock()
	c.cache.enabled = true
	if c.cache.agents == nil {
		c.cache.agents = make(map[core.OID]msg.NodeID)
		c.cache.pos = make(map[core.OID]clientPosEntry)
	}
}

// remember stores a query response in the caches.
func (c *clientCache) remember(oid core.OID, res msg.PosQueryRes) {
	if !c.enabled {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if res.Agent != "" {
		c.agents[oid] = res.Agent
	}
	c.pos[oid] = clientPosEntry{ld: res.LD, storedAt: time.Now(), maxSpeed: res.MaxSpeed}
}

// cachedPos returns a cached descriptor aged to now if it still meets
// accBound.
func (c *clientCache) cachedPos(oid core.OID, accBound float64) (core.LocationDescriptor, bool) {
	if !c.enabled || accBound <= 0 {
		return core.LocationDescriptor{}, false
	}
	c.mu.Lock()
	e, ok := c.pos[oid]
	c.mu.Unlock()
	if !ok {
		return core.LocationDescriptor{}, false
	}
	now := time.Now()
	if e.maxSpeed <= 0 && now.After(e.storedAt) {
		return core.LocationDescriptor{}, false
	}
	aged := e.ld.Aged(e.storedAt, now, e.maxSpeed)
	if aged.Acc > accBound {
		return core.LocationDescriptor{}, false
	}
	return aged, true
}

// cachedAgent returns the cached agent for oid.
func (c *clientCache) cachedAgent(oid core.OID) (msg.NodeID, bool) {
	if !c.enabled {
		return "", false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.agents[oid]
	return id, ok
}

// invalidate drops the cached agent for oid.
func (c *clientCache) invalidate(oid core.OID) {
	if !c.enabled {
		return
	}
	c.mu.Lock()
	delete(c.agents, oid)
	c.mu.Unlock()
}

// posQueryViaCache resolves a position query with the client caches: first
// the aged descriptor, then a direct call to the cached agent. It reports
// whether it produced an answer.
func (c *Client) posQueryViaCache(ctx context.Context, oid core.OID, accBound float64) (core.LocationDescriptor, bool) {
	if ld, ok := c.cache.cachedPos(oid, accBound); ok {
		return ld, true
	}
	agent, ok := c.cache.cachedAgent(oid)
	if !ok {
		return core.LocationDescriptor{}, false
	}
	resp, err := c.node.Call(c.opCtx(ctx), agent, msg.PosQueryDirect{OID: oid})
	if err != nil {
		c.cache.invalidate(oid)
		return core.LocationDescriptor{}, false
	}
	res, ok := resp.(msg.PosQueryRes)
	if !ok || !res.Found {
		c.cache.invalidate(oid)
		return core.LocationDescriptor{}, false
	}
	c.cache.remember(oid, res)
	return res.LD, true
}
