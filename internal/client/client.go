// Package client implements the client side of the location service: the
// operations of the service interface (Section 3.1 and 3.2) against an
// entry server, and the tracked-object role with its agent tracking across
// handovers.
//
// A mobile device may — and often will — hold both roles (paper, Fig. 1):
// one Client can register itself (or other objects) for tracking and issue
// queries at the same time.
package client

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"locsvc/internal/clock"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
	"locsvc/internal/transport"
)

// Options configure a Client.
type Options struct {
	// Timeout bounds every operation; default 5 s.
	Timeout time.Duration
	// Retry is the retry budget for idempotent operations (registration,
	// updates, queries): lost datagrams surface as timeouts, and under a
	// budget the client simply asks again with exponential backoff and
	// full jitter. Registrations and updates are stamped with a
	// per-client sequence number so a retried request is applied exactly
	// once by the receiving leaf (see the wire package's retry-idempotency
	// rules). The zero value disables retries — every operation gets one
	// attempt, the pre-existing behavior.
	Retry transport.RetryPolicy
	// OnAccChange is invoked when the service notifies that the offered
	// accuracy for a registered object changed (notifyAvailAcc,
	// Section 3.1).
	OnAccChange func(oid core.OID, offeredAcc float64)
	// OnRequestUpdate is invoked when a (recovering) leaf server asks
	// for a fresh position update for an object this client registered.
	OnRequestUpdate func(oid core.OID)
}

func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	return o
}

// Client is one node using the location service through an entry server.
type Client struct {
	node transport.Node
	opts Options
	// clk is the network's clock (transport.ClockOf), which times the
	// client's operations.
	clk clock.Clock

	seqs seqs // RegisterReq's and UpdateReq's Seq and Floor

	mu      sync.Mutex
	entry   msg.NodeID // guarded: SetEntry may race concurrent operations
	waiters map[uint64]chan msg.Message
	nextOp  uint64

	events eventSubs
}

// New attaches a client node to the network. entry is the client's entry
// server: the nearby leaf server it directs all requests to (found through
// a lookup service in the paper; hierarchy.Deployment.LeafFor here).
func New(network transport.Network, id msg.NodeID, entry msg.NodeID, opts Options) (*Client, error) {
	clk := transport.ClockOf(network)
	first := uint64(max(clk.Now().UnixNano(), 1))
	c := &Client{
		entry:   entry,
		opts:    opts.withDefaults(),
		clk:     clk,
		seqs:    seqs{clk: clk, next: first, floor: first, awaited: make(map[uint64]int64)},
		waiters: make(map[uint64]chan msg.Message),
	}
	node, err := network.Attach(id, c.handle)
	if err != nil {
		return nil, fmt.Errorf("client: attaching %s: %w", id, err)
	}
	c.node = node
	return c, nil
}

// ID returns the client's node id.
func (c *Client) ID() msg.NodeID { return c.node.ID() }

// Entry returns the entry server the client uses.
func (c *Client) Entry() msg.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entry
}

// SetEntry switches the client to a different entry server (e.g. after
// moving; remote-query experiments use it to force non-local entries).
// Safe against concurrent operations: each in-flight request reads the
// entry once and completes against the server it started with.
func (c *Client) SetEntry(entry msg.NodeID) {
	c.mu.Lock()
	c.entry = entry
	c.mu.Unlock()
}

// seqs draws the Seqs of a client's side-effecting requests and knows
// which it still awaits: until its operation ends or its deadline passes.
// The lowest is the ack floor every request carries. One lock draws a seq
// and records it, so no goroutine sends a floor above a seq another has
// drawn and not yet sent. The counter starts at the clock's reading in
// nanoseconds (at least 1: Seq 0 is unstamped), so a client restarted
// under the same node id draws above its previous incarnation's floors.
type seqs struct {
	clk     clock.Clock
	mu      sync.Mutex
	next    uint64           // the seq the next draw returns
	floor   uint64           // no seq below it is awaited
	awaited map[uint64]int64 // seq → its deadline in Unix nanoseconds
}

// draw returns a new seq, awaited until ctx's deadline or its release,
// and the floor to send with it.
func (q *seqs) draw(ctx context.Context) (seq, floor uint64) {
	until := int64(math.MaxInt64)
	if d, ok := ctx.Deadline(); ok {
		until = d.UnixNano()
	}
	now := q.clk.Now().UnixNano()
	q.mu.Lock()
	defer q.mu.Unlock()
	for ; q.floor < q.next; q.floor++ {
		if u, ok := q.awaited[q.floor]; ok && u > now {
			break
		}
		delete(q.awaited, q.floor)
	}
	seq = q.next
	q.next++
	q.awaited[seq] = until
	return seq, q.floor
}

// release records that seq's operation ended.
func (q *seqs) release(seq uint64) {
	q.mu.Lock()
	delete(q.awaited, seq)
	q.mu.Unlock()
}

// Close detaches the client from the network.
func (c *Client) Close() error { return c.node.Close() }

// handle processes asynchronous messages addressed to this client.
func (c *Client) handle(_ context.Context, _ msg.NodeID, m msg.Message) (msg.Message, error) {
	switch req := m.(type) {
	case msg.RegisterRes:
		c.deliver(req.OpID, m)
	case msg.RegisterFailed:
		c.deliver(req.OpID, m)
	case msg.NotifyAvailAcc:
		if c.opts.OnAccChange != nil {
			c.opts.OnAccChange(req.OID, req.OfferedAcc)
		}
	case msg.RequestUpdate:
		if c.opts.OnRequestUpdate != nil {
			c.opts.OnRequestUpdate(req.OID)
		}
	case msg.EventNotify:
		c.dispatchEvent(req)
	}
	return nil, nil
}

// openOp allocates a waiter for a direct (non-call) response.
func (c *Client) openOp() (uint64, chan msg.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextOp++
	id := c.nextOp
	ch := make(chan msg.Message, 1)
	c.waiters[id] = ch
	return id, ch
}

// closeOp discards a waiter.
func (c *Client) closeOp(id uint64) {
	c.mu.Lock()
	delete(c.waiters, id)
	c.mu.Unlock()
}

// deliver hands a response to its waiter.
func (c *Client) deliver(id uint64, m msg.Message) {
	c.mu.Lock()
	ch, ok := c.waiters[id]
	if ok {
		delete(c.waiters, id)
	}
	c.mu.Unlock()
	if ok {
		ch <- m
	}
}

// TrackedObject is the client-side handle for one registered object: it
// knows the object's current agent (updated transparently on handover) and
// the currently offered accuracy.
type TrackedObject struct {
	c *Client

	oid core.OID

	mu         sync.Mutex
	agent      msg.NodeID
	offeredAcc float64
	lastSent   core.Sighting
}

// Register registers a new tracked object with the LS (Section 3.1):
// the initial sighting s plus the requested accuracy range [desAcc,
// minAcc]. On success the returned handle is bound to the object's agent.
func (c *Client) Register(ctx context.Context, s core.Sighting, desAcc, minAcc, maxSpeed float64) (*TrackedObject, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrBadRequest, err)
	}
	ri := core.RegInfo{
		Registrant: string(c.ID()),
		DesAcc:     desAcc,
		MinAcc:     minAcc,
		MaxSpeed:   maxSpeed,
	}
	if err := ri.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrBadRequest, err)
	}
	opID, ch := c.openOp()
	defer c.closeOp(opID)
	// One OpID and one Seq for every attempt: a duplicate delivery makes
	// the leaf re-send its remembered outcome instead of re-applying, and
	// a late first reply resolves the same waiter a re-send is parked on.
	// The seq is awaited until Register returns, whatever ctx's deadline.
	seq, floor := c.seqs.draw(context.Background())
	defer c.seqs.release(seq)
	req := msg.RegisterReq{
		S:       s,
		RegInfo: ri,
		Origin:  msg.Origin{Node: c.ID(), OpID: opID},
		Seq:     seq,
		Floor:   floor,
	}
	attempts := c.opts.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	perTry := c.opts.Retry.PerTryTimeout
	if perTry <= 0 {
		perTry = c.opts.Timeout
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			transport.CountRetry(c.node)
			if !c.opts.Retry.Pause(ctx, c.clk, i) {
				return nil, ctx.Err()
			}
		}
		if err := c.node.Send(c.Entry(), req); err != nil {
			lastErr = fmt.Errorf("client: sending registration: %w", err)
			if !transport.Retryable(err) {
				return nil, lastErr
			}
			continue
		}
		// A stopped timer, not one left to run out: an unfired timer
		// stays alive for all of perTry, and a fleet registers in far less.
		expired, timer := clock.After(c.clk, perTry)
		select {
		case m := <-ch:
			timer.Stop()
			switch res := m.(type) {
			case msg.RegisterRes:
				return &TrackedObject{
					c:          c,
					oid:        s.OID,
					agent:      res.Agent,
					offeredAcc: res.OfferedAcc,
					lastSent:   s,
				}, nil
			case msg.RegisterFailed:
				if res.Refused.Code != "" {
					return nil, res.Refused.Err()
				}
				return nil, fmt.Errorf("%w: best achievable %.1f m at %s",
					core.ErrAccuracy, res.Achievable, res.Server)
			default:
				if err := msg.AsError(m); err != nil {
					return nil, err
				}
				return nil, core.ErrBadRequest
			}
		case <-expired:
			lastErr = fmt.Errorf("client: registration timed out: %w", context.DeadlineExceeded)
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

// OID returns the tracked object's identifier.
func (t *TrackedObject) OID() core.OID { return t.oid }

// Agent returns the current agent server.
func (t *TrackedObject) Agent() msg.NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.agent
}

// OfferedAcc returns the currently offered accuracy.
func (t *TrackedObject) OfferedAcc() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.offeredAcc
}

// LastSent returns the sighting most recently accepted by the service.
func (t *TrackedObject) LastSent() core.Sighting {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastSent
}

// Update sends a position update to the object's agent (Section 3.1) and
// returns nil once the agent has applied it. On a handover the handle
// rebinds to the new agent transparently, as the paper's old agent
// "informs the tracked object of its new agent". With a retry budget
// configured, a timed-out update is re-sent with the same sequence number —
// the agent applies it exactly once — against the handle's current agent,
// re-read before every attempt so a rebinding applied in between is
// honored.
func (t *TrackedObject) Update(ctx context.Context, s core.Sighting) error {
	if s.OID != t.oid {
		return fmt.Errorf("%w: sighting for %s on handle of %s", core.ErrBadRequest, s.OID, t.oid)
	}
	ctx = t.c.opCtx(ctx)
	seq, floor := t.c.seqs.draw(ctx)
	defer t.c.seqs.release(seq)
	req := msg.UpdateReq{S: s, Seq: seq, Floor: floor}
	resp, err := transport.CallWithRetry(ctx, t.c.node, t.Agent, req, t.c.opts.Retry)
	if err != nil {
		return err
	}
	res, ok := resp.(msg.UpdateRes)
	if !ok {
		return core.ErrBadRequest
	}
	t.applyUpdateRes(s, res)
	return nil
}

// applyUpdateRes folds an accepted update's response into the handle:
// remember the sighting, adopt the offered accuracy, rebind on handover.
func (t *TrackedObject) applyUpdateRes(s core.Sighting, res msg.UpdateRes) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastSent = s
	t.offeredAcc = res.OfferedAcc
	if res.Moved {
		t.agent = res.NewAgent
	}
}

// MaybeUpdate implements the paper's distance-based update protocol
// (Section 6.2): the update is only transmitted if the new position
// deviates from the last reported one by more than the offered accuracy.
// It reports whether an update was sent.
func (t *TrackedObject) MaybeUpdate(ctx context.Context, s core.Sighting) (bool, error) {
	t.mu.Lock()
	moved := s.Pos.Dist(t.lastSent.Pos) > t.offeredAcc
	t.mu.Unlock()
	if !moved {
		return false, nil
	}
	return true, t.Update(ctx, s)
}

// ChangeAcc renegotiates the accuracy range (Section 3.1). On success the
// newly offered accuracy is returned.
func (t *TrackedObject) ChangeAcc(ctx context.Context, desAcc, minAcc float64) (float64, error) {
	resp, err := t.c.node.Call(t.c.opCtx(ctx), t.Agent(), msg.ChangeAccReq{OID: t.oid, DesAcc: desAcc, MinAcc: minAcc})
	if err != nil {
		return 0, err
	}
	res, ok := resp.(msg.ChangeAccRes)
	if !ok {
		return 0, core.ErrBadRequest
	}
	if !res.OK {
		return res.OfferedAcc, core.ErrAccuracy
	}
	t.mu.Lock()
	t.offeredAcc = res.OfferedAcc
	t.mu.Unlock()
	return res.OfferedAcc, nil
}

// Deregister removes the object from the service (Section 3.1).
func (t *TrackedObject) Deregister(ctx context.Context) error {
	_, err := t.c.node.Call(t.c.opCtx(ctx), t.Agent(), msg.DeregisterReq{OID: t.oid})
	return err
}

// PosQuery retrieves the location descriptor of a tracked object
// (Section 3.2, posQuery).
func (c *Client) PosQuery(ctx context.Context, oid core.OID) (core.LocationDescriptor, error) {
	return c.PosQueryBounded(ctx, oid, 0)
}

// PosQueryBounded is PosQuery with an accuracy bound that permits the entry
// server to answer from its position cache when the cached descriptor, aged
// to now, is still at least accBound accurate (Section 6.5).
//
// A degraded miss — the entry server could not reach the part of the
// hierarchy that would know the object — returns core.ErrUnavailable, not
// core.ErrNotFound: the object may well be tracked behind the dark servers.
func (c *Client) PosQueryBounded(ctx context.Context, oid core.OID, accBound float64) (core.LocationDescriptor, error) {
	resp, err := c.callEntry(ctx, msg.PosQueryReq{OID: oid, AccBound: accBound})
	if err != nil {
		return core.LocationDescriptor{}, err
	}
	res, ok := resp.(msg.PosQueryRes)
	if !ok {
		return core.LocationDescriptor{}, core.ErrNotFound
	}
	if !res.Found {
		if res.Partial {
			return core.LocationDescriptor{}, core.ErrUnavailable
		}
		return core.LocationDescriptor{}, core.ErrNotFound
	}
	return res.LD, nil
}

// callEntry performs one request/response operation against the entry
// server under the client's timeout and retry budget. The entry is re-read
// before every attempt so a concurrent SetEntry redirects retries.
func (c *Client) callEntry(ctx context.Context, m msg.Message) (msg.Message, error) {
	return transport.CallWithRetry(c.opCtx(ctx), c.node, c.Entry, m, c.opts.Retry)
}

// opCtx bounds one operation by the client's timeout. The transport's
// in-flight tracker enforces the deadline (transport.WithCallDeadline), so
// no operation pays for a timer context of its own.
func (c *Client) opCtx(ctx context.Context) context.Context {
	return transport.WithCallDeadline(ctx, c.clk, c.opts.Timeout)
}

// RangeResult is the client-side result of a range query. Partial marks a
// degraded answer: Objs covers only the part of the hierarchy that was
// reachable (Unreachable names the dark servers the entry server saw), so
// an empty Objs means "nothing found among the live servers", not "nothing
// there".
type RangeResult struct {
	Objs        []core.Entry
	Servers     int
	Hops        int
	Partial     bool
	Unreachable []msg.NodeID
}

// RangeQuery returns all tracked objects inside the area whose location
// areas overlap it by at least reqOverlap and whose accuracy is at least
// reqAcc (Section 3.2, rangeQuery). Degraded answers are returned as is;
// use RangeQueryFull to distinguish them.
func (c *Client) RangeQuery(ctx context.Context, area core.Area, reqAcc, reqOverlap float64) ([]core.Entry, error) {
	res, err := c.RangeQueryFull(ctx, area, reqAcc, reqOverlap)
	return res.Objs, err
}

// RangeQueryFull is RangeQuery with the full response: contributing-server
// and hop counts, plus the degraded-answer marking.
func (c *Client) RangeQueryFull(ctx context.Context, area core.Area, reqAcc, reqOverlap float64) (RangeResult, error) {
	resp, err := c.callEntry(ctx, msg.RangeQueryReq{Area: area, ReqAcc: reqAcc, ReqOverlap: reqOverlap})
	if err != nil {
		return RangeResult{}, err
	}
	res, ok := resp.(msg.RangeQueryRes)
	if !ok {
		return RangeResult{}, core.ErrBadRequest
	}
	return RangeResult{
		Objs:        res.Objs,
		Servers:     res.Servers,
		Hops:        res.Hops,
		Partial:     res.Partial,
		Unreachable: res.Unreachable,
	}, nil
}

// RangeQueryRect is RangeQuery for a rectangular area.
func (c *Client) RangeQueryRect(ctx context.Context, r geo.Rect, reqAcc, reqOverlap float64) ([]core.Entry, error) {
	return c.RangeQuery(ctx, core.AreaFromRect(r), reqAcc, reqOverlap)
}

// Diag fetches the entry server's diagnostic snapshot: store occupancy,
// sighting-shard layout (occupancy and contention per shard) and the
// metrics registry. Operator tooling (lsctl stats) prints it.
func (c *Client) Diag(ctx context.Context) (msg.DiagRes, error) {
	resp, err := c.callEntry(ctx, msg.DiagReq{})
	if err != nil {
		return msg.DiagRes{}, err
	}
	res, ok := resp.(msg.DiagRes)
	if !ok {
		return msg.DiagRes{}, core.ErrBadRequest
	}
	return res, nil
}

// NeighborResult is the client-side result of a nearest-neighbor query.
// Partial marks a degraded answer: the true nearest object could be agented
// behind one of the Unreachable servers.
type NeighborResult struct {
	Nearest           core.Entry
	Near              []core.Entry
	GuaranteedMinDist float64
	Partial           bool
	Unreachable       []msg.NodeID
}

// NeighborQuery returns the tracked object nearest to p together with the
// nearObjSet within nearQual of its distance (Section 3.2, neighborQuery).
// A degraded "nothing found" returns core.ErrUnavailable instead of
// core.ErrNotFound — dark servers may hold the answer.
func (c *Client) NeighborQuery(ctx context.Context, p geo.Point, reqAcc, nearQual float64) (NeighborResult, error) {
	resp, err := c.callEntry(ctx, msg.NeighborQueryReq{P: p, ReqAcc: reqAcc, NearQual: nearQual})
	if err != nil {
		return NeighborResult{}, err
	}
	res, ok := resp.(msg.NeighborQueryRes)
	if !ok {
		return NeighborResult{}, core.ErrBadRequest
	}
	if !res.Found {
		if res.Partial {
			return NeighborResult{Partial: true, Unreachable: res.Unreachable}, core.ErrUnavailable
		}
		return NeighborResult{}, core.ErrNotFound
	}
	return NeighborResult{
		Nearest:           res.Nearest,
		Near:              res.Near,
		GuaranteedMinDist: res.GuaranteedMinDist,
		Partial:           res.Partial,
		Unreachable:       res.Unreachable,
	}, nil
}
