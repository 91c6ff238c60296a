package transport

import (
	"sync"
	"time"

	"locsvc/internal/clock"
	"locsvc/internal/metrics"
	"locsvc/internal/msg"
)

// Per-peer circuit breakers. Every node tracks consecutive-failure state
// for each destination it calls, fed by the in-flight tracker's outcome
// hook: a reply (even an error frame) proves the peer alive, a swept
// timeout counts against it. After breakerThreshold consecutive failures
// the breaker opens and calls to that peer fail fast with ErrBreakerOpen —
// no datagram written, no in-flight slot burned — until the cooldown
// elapses, after which exactly one probe call half-opens the breaker; its
// outcome closes or reopens it.

// PeerState is the breaker state of one destination as seen by one node.
type PeerState int

// Breaker states, in escalation order. The zero value is closed (healthy).
const (
	// PeerClosed: calls flow normally.
	PeerClosed PeerState = iota
	// PeerOpen: calls fail fast until the cooldown elapses.
	PeerOpen
	// PeerHalfOpen: one probe call is in flight; everything else still
	// fails fast until the probe resolves.
	PeerHalfOpen
)

// String names the state for gauges and logs.
func (s PeerState) String() string {
	switch s {
	case PeerClosed:
		return "closed"
	case PeerOpen:
		return "open"
	case PeerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// gaugeValue is the numeric encoding used for peer_state gauges:
// 0 closed, 1 open, 2 half-open (matching the constant order).
func (s PeerState) gaugeValue() int64 { return int64(s) }

// breakerConfig tunes a node's per-peer health tracking. A zero threshold
// disables breakers entirely (no map, no overhead on the call path).
type breakerConfig struct {
	// clk times the cooldown.
	clk clock.Clock
	// threshold is the consecutive-failure count that opens a breaker.
	threshold int
	// cooldown is how long an open breaker refuses calls before allowing
	// a half-open probe. Zero uses defaultBreakerCooldown.
	cooldown time.Duration
	// owner names the observing node in peer_state gauge names.
	owner msg.NodeID
	// metrics receives peer_state gauges and the wire_breaker_open
	// fail-fast counter.
	metrics *metrics.Registry
}

// defaultBreakerCooldown is the open→half-open probe interval when none is
// configured.
const defaultBreakerCooldown = time.Second

// peerHealth is the breaker state for one destination.
type peerHealth struct {
	fails    int
	state    PeerState
	openedAt time.Time
}

// health tracks breaker state per destination for one node. A nil *health
// is valid and means "breakers disabled": every method is a cheap no-op,
// so call sites need no feature flag.
type health struct {
	cfg      breakerConfig
	failFast *metrics.Counter

	mu    sync.Mutex
	peers map[msg.NodeID]*peerHealth
}

func newHealth(cfg breakerConfig) *health {
	if cfg.threshold <= 0 {
		return nil
	}
	if cfg.cooldown <= 0 {
		cfg.cooldown = defaultBreakerCooldown
	}
	return &health{
		cfg:      cfg,
		failFast: cfg.metrics.Counter("wire_breaker_open"),
		peers:    make(map[msg.NodeID]*peerHealth),
	}
}

// allow reports whether a call to dst may proceed. An open breaker past
// its cooldown transitions to half-open and admits the caller as the
// probe; otherwise open and half-open (probe already out) refuse with
// ErrBreakerOpen.
func (h *health) allow(to msg.NodeID) error {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peers[to]
	if p == nil {
		return nil
	}
	switch p.state {
	case PeerClosed:
		return nil
	case PeerOpen:
		if h.cfg.clk.Now().Sub(p.openedAt) >= h.cfg.cooldown {
			p.state = PeerHalfOpen
			h.gauge(to, p.state)
			return nil // this caller is the probe
		}
	case PeerHalfOpen:
		// A probe is already in flight; fail fast until it resolves.
	}
	h.failFast.Inc()
	return ErrBreakerOpen
}

// success records a completed call: any reply (including a late one while
// the breaker is open) proves the peer alive and closes its breaker.
func (h *health) success(to msg.NodeID) {
	if h == nil {
		return
	}
	h.mu.Lock()
	p := h.peers[to]
	if p != nil && (p.fails != 0 || p.state != PeerClosed) {
		p.fails = 0
		if p.state != PeerClosed {
			p.state = PeerClosed
			h.gauge(to, p.state)
		}
	}
	h.mu.Unlock()
}

// failure records a swept timeout: threshold consecutive failures open the
// breaker; a failed half-open probe reopens it for another cooldown.
func (h *health) failure(to msg.NodeID) {
	if h == nil {
		return
	}
	h.mu.Lock()
	p := h.peers[to]
	if p == nil {
		p = &peerHealth{}
		h.peers[to] = p
	}
	p.fails++
	if p.state == PeerHalfOpen || (p.state == PeerClosed && p.fails >= h.cfg.threshold) {
		p.state = PeerOpen
		p.openedAt = h.cfg.clk.Now()
		h.gauge(to, p.state)
	}
	h.mu.Unlock()
}

// abortProbe reverts a half-open breaker to open when its admitted probe
// could not even be sent (destination lookup or in-flight slot failed), so
// the breaker is not stuck half-open with no probe in flight. Other states
// are untouched.
func (h *health) abortProbe(to msg.NodeID) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if p := h.peers[to]; p != nil && p.state == PeerHalfOpen {
		p.state = PeerOpen
		p.openedAt = h.cfg.clk.Now()
		h.gauge(to, p.state)
	}
	h.mu.Unlock()
}

// outcome is the tracker hook form of success/failure.
func (h *health) outcome(to msg.NodeID, ok bool) {
	if ok {
		h.success(to)
	} else {
		h.failure(to)
	}
}

// state returns the current breaker state for dst (PeerClosed when
// untracked or breakers are disabled).
func (h *health) state(to msg.NodeID) PeerState {
	if h == nil {
		return PeerClosed
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if p := h.peers[to]; p != nil {
		return p.state
	}
	return PeerClosed
}

// gauge publishes a state change; called with h.mu held.
func (h *health) gauge(to msg.NodeID, s PeerState) {
	h.cfg.metrics.Gauge("peer_state." + string(h.cfg.owner) + "->" + string(to)).Set(s.gaugeValue())
}
