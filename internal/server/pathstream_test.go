package server_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/clock"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/msg"
	"locsvc/internal/server"
	"locsvc/internal/store"
	"locsvc/internal/transport"
)

// The path stream's tests run a two-level tree, so a leaf's path messages
// reach the root through an inner server: pathLeaf, the leaf for pathAt,
// sends to pathInner, which sends to the root.
const (
	pathLeaf  msg.NodeID = "r.0.0"
	pathInner msg.NodeID = "r.0"
)

var pathAt = geo.Pt(100, 100)

func pathSpec() hierarchy.Spec {
	return hierarchy.Spec{
		RootArea: geo.R(0, 0, 1500, 1500),
		Levels:   []hierarchy.Level{{Rows: 2, Cols: 2}, {Rows: 2, Cols: 2}},
	}
}

// pathLinks records every path envelope a FaultPlan sees, per directed
// link, in the order the plan saw them.
type pathLinks struct {
	mu    sync.Mutex
	sends map[[2]msg.NodeID][]msg.PathBatch
}

// record notes env if it carries path messages and returns its index on
// the link from→to; ok is false for any other envelope.
func (l *pathLinks) record(from, to msg.NodeID, env msg.Envelope) (i int, ok bool) {
	b, ok := env.Msg.(msg.PathBatch)
	if !ok {
		return 0, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sends == nil {
		l.sends = make(map[[2]msg.NodeID][]msg.PathBatch)
	}
	link := [2]msg.NodeID{from, to}
	l.sends[link] = append(l.sends[link], b)
	return len(l.sends[link]) - 1, true
}

// on returns the path envelopes sent on the link from→to so far.
func (l *pathLinks) on(from, to msg.NodeID) []msg.PathBatch {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]msg.PathBatch(nil), l.sends[[2]msg.NodeID{from, to}]...)
}

// changesOn counts the path messages sent on the link from→to so far.
func (l *pathLinks) changesOn(from, to msg.NodeID) int {
	n := 0
	for _, b := range l.on(from, to) {
		n += len(b.Changes)
	}
	return n
}

// holds reports whether srv keeps a record of oid.
func holds(srv *server.Server, oid string) bool {
	_, ok := srv.VisitorForTest(core.OID(oid))
	return ok
}

// pathEnv is one TestPathStream case's deployment: a client registers
// objects at pathLeaf, the first one o0 and then queuedIDs.
type pathEnv struct {
	t                 *testing.T
	clk               *clock.Manual
	links             *pathLinks
	leaf, inner, root *server.Server
	owner             *client.Client
	queuedIDs         []string
}

func (e *pathEnv) register(id string) *client.TrackedObject {
	e.t.Helper()
	obj, err := e.owner.Register(ctx(e.t), sightingAt(id, pathAt), 10, 50, 3)
	if err != nil {
		e.t.Fatal(err)
	}
	return obj
}

func (e *pathEnv) registerQueued() {
	e.t.Helper()
	for _, id := range e.queuedIDs {
		e.register(id)
	}
}

// atEveryAncestor reports whether the leaf's parent and the root both hold
// a record of each of ids.
func (e *pathEnv) atEveryAncestor(ids ...string) bool {
	for _, id := range ids {
		if !holds(e.inner, id) || !holds(e.root, id) {
			return false
		}
	}
	return true
}

// nowhere reports whether no server on the path holds a record of id.
func (e *pathEnv) nowhere(id string) bool {
	return !holds(e.leaf, id) && !holds(e.inner, id) && !holds(e.root, id)
}

// TestPathStream drives one leaf's path stream on the manual clock, with
// faults scripted by the index of an envelope on the leaf's link to its
// parent: a held batch makes the next one carry everything queued behind
// it, a createPath and a removePath for one object arrive in order, a lost
// batch does not hold up the ones behind it, and Close gives what is queued
// its one best-effort send.
func TestPathStream(t *testing.T) {
	const (
		k       = 5 // registrations queued behind the first
		hold    = 10 * time.Millisecond
		perTry  = 10 * time.Millisecond
		sweep   = 2 * time.Millisecond
		backoff = time.Second
	)
	tests := []struct {
		name string
		// fault scripts the i-th path envelope from the leaf to its parent.
		fault func(i int) transport.Fault
		run   func(t *testing.T, e *pathEnv)
	}{
		{
			name: "held batch, then one batch of all queued behind it",
			fault: func(i int) transport.Fault {
				if i == 0 {
					return transport.Fault{Delay: hold}
				}
				return transport.Fault{}
			},
			run: func(t *testing.T, e *pathEnv) {
				e.register("o0")
				e.registerQueued()
				if n := len(e.links.on(pathLeaf, pathInner)); n != 1 {
					t.Fatalf("%d path envelopes left the leaf while the first was held, want 1", n)
				}
				e.clk.Advance(hold)
				waitFor(t, func() bool { return e.atEveryAncestor(append([]string{"o0"}, e.queuedIDs...)...) }, "every path at every ancestor")
				bs := e.links.on(pathLeaf, pathInner)
				if len(bs) != 2 || len(bs[0].Changes) != 1 || len(bs[1].Changes) != k {
					sizes := make([]int, len(bs))
					for i, b := range bs {
						sizes[i] = len(b.Changes)
					}
					t.Fatalf("path envelopes to the parent carry %v messages, want [1 %d]", sizes, k)
				}
			},
		},
		{
			name: "createPath then removePath for one object",
			fault: func(i int) transport.Fault {
				if i == 0 {
					return transport.Fault{Delay: hold}
				}
				return transport.Fault{}
			},
			run: func(t *testing.T, e *pathEnv) {
				obj := e.register("o1")
				if err := obj.Deregister(ctx(t)); err != nil {
					t.Fatal(err)
				}
				// The removal waits for the held createPath's ack: were it
				// sent beside it, it would reach the parent first, find
				// nothing to remove, and the late createPath would leave a
				// record behind at every ancestor.
				if n := e.links.changesOn(pathLeaf, pathInner); n != 1 {
					t.Fatalf("%d path messages left the leaf while the first was held, want 1", n)
				}
				e.clk.Advance(hold)
				waitFor(t, func() bool { return e.links.changesOn(pathInner, "r") == 2 && e.nowhere("o1") },
					"both path messages to climb to the root and leave no record")
			},
		},
		{
			name: "a lost batch does not hold up the next",
			fault: func(i int) transport.Fault {
				return transport.Fault{Drop: i == 0}
			},
			run: func(t *testing.T, e *pathEnv) {
				e.register("o1")
				e.register("o2")
				// The sweep fails o1's try, arming its backoff; o2 leaves at
				// once and reaches every ancestor while the clock stands.
				e.clk.Advance(perTry + sweep)
				waitFor(t, func() bool { return e.atEveryAncestor("o2") }, "o2's path while o1's batch waits out its backoff")
				if holds(e.inner, "o1") {
					t.Fatal("o1's lost batch reached the parent before its backoff ended")
				}
				e.clk.Advance(backoff)
				waitFor(t, func() bool { return e.atEveryAncestor("o1", "o2") }, "o1's re-sent path")
			},
		},
		{
			name: "Close sends what is queued",
			fault: func(i int) transport.Fault {
				return transport.Fault{Drop: i == 0}
			},
			run: func(t *testing.T, e *pathEnv) {
				e.register("o0") // its try is lost and holds the window
				e.registerQueued()
				if err := e.leaf.Close(); err != nil {
					t.Fatal(err)
				}
				waitFor(t, func() bool { return e.atEveryAncestor(e.queuedIDs...) }, "the queued paths at every ancestor")
				bs := e.links.on(pathLeaf, pathInner)
				if len(bs) != 2 || len(bs[1].Changes) != k {
					t.Fatalf("%d path envelopes to the parent, want the lost one and one of %d queued messages", len(bs), k)
				}
				if holds(e.inner, "o0") {
					t.Error("the abandoned batch reached the parent")
				}
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			links := &pathLinks{}
			ls, clk := newManualLS(t, pathSpec(), server.Options{
				PathRetry: transport.RetryPolicy{
					MaxAttempts:   3,
					BaseBackoff:   backoff,
					MaxBackoff:    backoff,
					PerTryTimeout: perTry,
				},
			}, transport.InprocOptions{
				SweepInterval: sweep,
				FaultPlan: func(from, to msg.NodeID, env msg.Envelope) transport.Fault {
					i, ok := links.record(from, to, env)
					if !ok || from != pathLeaf || to != pathInner {
						return transport.Fault{}
					}
					return tt.fault(i)
				},
			})
			if leaf, _ := ls.dep.LeafFor(pathAt); leaf != pathLeaf {
				t.Fatalf("leaf for %v is %s, want %s", pathAt, leaf, pathLeaf)
			}
			e := &pathEnv{t: t, clk: clk, links: links}
			e.leaf = ls.dep.Servers[pathLeaf]
			e.inner = ls.dep.Servers[pathInner]
			e.root = ls.dep.Servers["r"]
			e.owner = ls.newClientAt(t, "owner", pathAt, client.Options{})
			for i := 1; i <= k; i++ {
				e.queuedIDs = append(e.queuedIDs, fmt.Sprintf("o%d", i))
			}
			tt.run(t, e)
		})
	}
}

// failingWAL refuses every append, as a full or failed disk would.
type failingWAL struct{ store.NullWAL }

func (failingWAL) Append(store.WALRecord) error { return errors.New("registration log: disk full") }

// TestRegistrationRefusedLeavesNoPath registers at a leaf whose registration
// log refuses the append: the registration fails, and no path message
// leaves the leaf, so neither its parent nor the root keeps a forwarding
// record that nothing would re-assert or remove.
func TestRegistrationRefusedLeavesNoPath(t *testing.T) {
	links := &pathLinks{}
	clk := clock.NewManual(time.Now())
	net := transport.NewInproc(transport.InprocOptions{
		Clock: clk,
		FaultPlan: func(from, to msg.NodeID, env msg.Envelope) transport.Fault {
			links.record(from, to, env)
			return transport.Fault{}
		},
	})
	dep, err := hierarchy.DeployWith(net, pathSpec(), server.Options{}, func(cfg store.ConfigRecord, o server.Options) (server.Options, error) {
		if msg.NodeID(cfg.ID) == pathLeaf {
			o.WAL = failingWAL{}
		}
		return o, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		dep.Close()
		net.Close()
	})
	ls := &testLS{net: net, dep: dep}
	owner := ls.newClientAt(t, "owner", pathAt, client.Options{})
	// The leaf refuses the registration under its OpID: Register returns
	// the log's error while the clock stands still.
	_, err = owner.Register(ctx(t), sightingAt("o1", pathAt), 10, 50, 3)
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("registration over a refusing registration log: err = %v, want the log's refusal", err)
	}
	leaf := dep.Servers[pathLeaf]
	waitFor(t, func() bool { return leaf.Metrics().Counter("visitor_db_errors").Value() == 1 }, "the leaf to refuse the registration")
	// The plan sees a path envelope on its sender's goroutine, and the
	// leaf counts the refusal after it would have sent one: none was sent.
	if n := links.changesOn(pathLeaf, pathInner); n != 0 {
		t.Errorf("%d path messages left the leaf for a refused registration", n)
	}
	for _, id := range []msg.NodeID{pathLeaf, pathInner, "r"} {
		if srv := dep.Servers[id]; holds(srv, "o1") {
			t.Errorf("%s holds a record of the refused registration", id)
		}
	}
}
