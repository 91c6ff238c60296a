// Async operation surface. Every blocking operation on Client and
// TrackedObject is the lockstep special case of these: issue the request
// through the transport's in-flight tracker (transport.CallAsync), get a
// pending handle back, resolve it later. Fan-out callers — the benchmark's
// pipelined clients, a UI prefetching many positions — keep hundreds of
// requests riding one socket concurrently; each request still carries its
// own deadline, swept by the transport's timeout goroutine, so an
// unanswered request resolves as a timeout error instead of leaking.

package client

import (
	"context"
	"fmt"

	"locsvc/internal/core"
	"locsvc/internal/msg"
	"locsvc/internal/transport"
)

// PendingUpdate is one in-flight position update. Resolve it with Wait.
type PendingUpdate struct {
	t *TrackedObject
	s core.Sighting
	p *transport.PendingCall
}

// UpdateAsync sends a position update to the object's agent and returns
// without waiting for the response. The request deadline is ctx's, capped
// by the client's operation timeout. The handle's agent rebinds on
// handover when the result is waited on, exactly like Update.
func (t *TrackedObject) UpdateAsync(ctx context.Context, s core.Sighting) (*PendingUpdate, error) {
	if s.OID != t.oid {
		return nil, fmt.Errorf("%w: sighting for %s on handle of %s", core.ErrBadRequest, s.OID, t.oid)
	}
	p, err := t.c.node.CallAsync(t.c.opCtx(ctx), t.Agent(), msg.UpdateReq{S: s, Seq: t.c.nextSeq()})
	if err != nil {
		return nil, err
	}
	return &PendingUpdate{t: t, s: s, p: p}, nil
}

// Wait blocks until the update resolves: with the agent's response, with a
// timeout error once the request deadline passes, or with ctx's error.
func (u *PendingUpdate) Wait(ctx context.Context) error {
	resp, err := u.p.Wait(ctx)
	if err != nil {
		return err
	}
	res, ok := resp.(msg.UpdateRes)
	if !ok {
		return core.ErrBadRequest
	}
	u.t.applyUpdateRes(u.s, res)
	return nil
}

// PendingPosQuery is one in-flight position query. Resolve it with Wait.
type PendingPosQuery struct {
	c   *Client
	oid core.OID
	p   *transport.PendingCall
}

// PosQueryAsync issues a position query to the entry server and returns
// without waiting for the response. It bypasses the client-side cache —
// fan-out callers batch many distinct objects, where the cache check
// belongs on the caller's side if wanted.
func (c *Client) PosQueryAsync(ctx context.Context, oid core.OID, accBound float64) (*PendingPosQuery, error) {
	p, err := c.node.CallAsync(c.opCtx(ctx), c.Entry(), msg.PosQueryReq{OID: oid, AccBound: accBound})
	if err != nil {
		return nil, err
	}
	return &PendingPosQuery{c: c, oid: oid, p: p}, nil
}

// Wait blocks until the query resolves and feeds the client cache like
// PosQueryBounded.
func (q *PendingPosQuery) Wait(ctx context.Context) (core.LocationDescriptor, error) {
	resp, err := q.p.Wait(ctx)
	if err != nil {
		return core.LocationDescriptor{}, err
	}
	res, ok := resp.(msg.PosQueryRes)
	if !ok || !res.Found {
		return core.LocationDescriptor{}, core.ErrNotFound
	}
	q.c.cache.remember(q.oid, res)
	return res.LD, nil
}
