// Package rig deploys the location service for one benchmark workload,
// drives it with generated ops, checks the answers and collects the
// metrics. It uses the service only through exported constructors and
// methods, and it never learns a workload's name or seed: it receives a
// gen.Deploy, the starting positions and the op streams.
package rig

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"locsvc/bench/gen"
	"locsvc/bench/tracenet"
	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/metrics"
	"locsvc/internal/msg"
	"locsvc/internal/server"
	"locsvc/internal/store"
	"locsvc/internal/transport"
)

// opTimeout bounds every client operation; an op that needs longer counts
// as failed.
const opTimeout = 5 * time.Second

// maxSpans caps the spans a traced pass keeps (about 70 bytes each).
const maxSpans = 6 << 20

// World is one running deployment with its clients, registered objects and
// the generator-side ground truth the checks compare against.
type World struct {
	cfg gen.Deploy
	dir string

	net    transport.Network
	udpMet *metrics.Registry
	trace  *tracenet.Net
	dep    *hierarchy.Deployment
	leaves []msg.NodeID

	conns [gen.Streams]*conn
	// initial holds the registration positions; oids, objs and truth are
	// indexed like it.
	initial []geo.Point
	oids    []core.OID
	objs    []*client.TrackedObject
	truth   []truthCell

	trips     []tripwire
	tripIndex map[string]int
	notes     notifyLog
}

// truthCell is the ground truth of one object. Positions are multiples of
// 1/1024 m (gen quantizes them), so one packs into a single word and the
// checkers read it without locks.
type truthCell struct {
	// pos is the last acknowledged position, pending the position of an
	// update in flight (0 when none).
	pos, pending atomic.Uint64
	// started and done count the object's updates; an object with
	// started != done, or whose started moved during a query, is
	// ambiguous for that query's comparison.
	started, done atomic.Uint32
}

func pack(p geo.Point) uint64 {
	return uint64(math.Round(p.X*1024))<<32 | uint64(math.Round(p.Y*1024))
}

func unpack(v uint64) geo.Point {
	return geo.Pt(float64(v>>32)/1024, float64(v&0xffffffff)/1024)
}

// conn is one client connection with the generator goroutine's private
// state.
type conn struct {
	id int
	w  *World
	c  *client.Client
	// rangeSeen and nnSeen count queries for the every-500th brute-force
	// comparison; snapStarted and snapDone are its scratch snapshots.
	rangeSeen, nnSeen        int
	snapStarted, snapDone    []uint32
	snapStable               []bool
	checkedRange, checkedNN  int
	ambiguousSkips, posCheck int
}

// Setup deploys cfg under dir, registers one object per starting position
// and returns once every forwarding path reaches the root, the tiers are
// preloaded and the tripwires are installed. traced wraps the network in a
// tracenet (recording stays off until the traced pass enables it).
func Setup(cfg gen.Deploy, initial []geo.Point, dir string, traced bool) (*World, error) {
	w := &World{cfg: cfg, dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if cfg.UDP {
		w.udpMet = metrics.NewRegistry()
		w.net = transport.NewUDPWithOptions(transport.UDPOptions{
			Metrics: w.udpMet, BatchMax: 16, BatchLinger: time.Millisecond, MaxInFlight: 512,
		})
	} else {
		w.net = transport.NewInproc(transport.InprocOptions{})
	}
	if traced {
		w.trace = tracenet.Wrap(w.net, maxSpans)
		w.net = w.trace
	}
	if err := w.deploy(); err != nil {
		w.net.Close()
		return nil, err
	}
	if err := w.populate(initial); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// deploy starts the server tree. With WAL set it mirrors what
// locsvc.NewLocal does for LocalConfig.WALDir (NewLocal itself hides the
// network and the deployment, which the rig needs for tracing and counts).
func (w *World) deploy() error {
	cfg := w.cfg
	spec := hierarchy.Spec{RootArea: geo.R(0, 0, cfg.Side, cfg.Side)}
	for _, l := range cfg.Levels {
		spec.Levels = append(spec.Levels, hierarchy.Level{Rows: l.Rows, Cols: l.Cols})
	}
	base := server.Options{
		Shards:           cfg.Shards,
		JanitorInterval:  cfg.Janitor,
		EnableAreaCache:  cfg.Caches,
		EnableAgentCache: cfg.Caches,
		EnablePosCache:   cfg.Caches,
	}
	var customize func(store.ConfigRecord, server.Options) (server.Options, error)
	if cfg.WAL {
		customize = func(rec store.ConfigRecord, o server.Options) (server.Options, error) {
			vw, err := store.OpenFileWAL(filepath.Join(w.dir, rec.ID+"-visitors.wal"))
			if err != nil {
				return o, err
			}
			o.WAL = vw
			if !rec.IsLeaf() {
				return o, nil
			}
			sw, err := store.OpenShardedWAL(filepath.Join(w.dir, rec.ID+"-sightings"), cfg.Shards)
			if err != nil {
				vw.Close()
				return o, err
			}
			o.SightingWAL = sw
			if cfg.MemtableBytes > 0 {
				o.Tiering = &store.TierConfig{MemtableBytes: cfg.MemtableBytes}
			}
			return o, nil
		}
	}
	dep, err := hierarchy.DeployWith(w.net, spec, base, customize)
	if err != nil {
		return fmt.Errorf("rig: deploying: %w", err)
	}
	w.dep = dep
	w.leaves = dep.Leaves()
	if len(w.leaves) != cfg.Leaves() {
		return fmt.Errorf("rig: deployment has %d leaves, generator assumes %d", len(w.leaves), cfg.Leaves())
	}
	for i := range w.conns {
		c, err := client.New(w.net, msg.NodeID(fmt.Sprintf("c%d", i)), w.leaves[0], client.Options{Timeout: opTimeout})
		if err != nil {
			return fmt.Errorf("rig: attaching client: %w", err)
		}
		w.conns[i] = &conn{id: i, w: w, c: c}
	}
	return nil
}

// populate registers the objects (each connection its own, like the update
// streams), waits for the forwarding paths, preloads the tiers and installs
// the tripwires.
func (w *World) populate(initial []geo.Point) error {
	n := len(initial)
	w.initial = initial
	w.oids = make([]core.OID, n)
	w.objs = make([]*client.TrackedObject, n)
	w.truth = make([]truthCell, n)
	for i := range w.oids {
		w.oids[i] = core.OID(fmt.Sprintf("o%06d", i))
	}
	ctx := context.Background()
	errs := make([]error, gen.Streams)
	var wg sync.WaitGroup
	for _, cn := range w.conns {
		wg.Add(1)
		go func(cn *conn) {
			defer wg.Done()
			errs[cn.id] = cn.register(ctx, initial)
		}(cn)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if err := waitFor(time.Minute, func() bool { return w.dep.RootVisitorCount() >= n }); err != nil {
		return fmt.Errorf("rig: forwarding paths incomplete, %d of %d at the root", w.dep.RootVisitorCount(), n)
	}
	if w.cfg.MemtableBytes > 0 {
		// Preloaded means at least three quarters of the records have
		// left the memtables for the run files.
		err := waitFor(time.Minute, func() bool {
			ts, terr := w.tierTotals()
			return terr == nil && ts.DiskLive*4 >= int64(n)*3
		})
		if err != nil {
			ts, _ := w.tierTotals()
			return fmt.Errorf("rig: tiers not preloaded, %d of %d records run-resident", ts.DiskLive, n)
		}
	}
	return w.installTripwires()
}

// register registers the connection's objects leaf by leaf, entering at the
// leaf that will be their agent. A pipelined connection keeps cfg.Pipeline
// registrations in flight (a lone datagram waits out the batch linger, so
// one at a time would take milliseconds each over UDP).
func (cn *conn) register(ctx context.Context, initial []geo.Point) error {
	w := cn.w
	byLeaf := make([][]int, len(w.leaves))
	for i := cn.id; i < len(initial); i += gen.Streams {
		li, _ := w.cfg.LeafOf(initial[i])
		if got, ok := w.dep.LeafFor(initial[i]); !ok || got != w.leaves[li] {
			return fmt.Errorf("rig: generator places %v on leaf %d (%s), deployment on %q", initial[i], li, w.leaves[li], got)
		}
		byLeaf[li] = append(byLeaf[li], i)
	}
	workers := w.cfg.Pipeline
	if workers < 1 {
		workers = 1
	}
	for li, list := range byLeaf {
		cn.c.SetEntry(w.leaves[li])
		var next atomic.Int64
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				for {
					j := int(next.Add(1)) - 1
					if j >= len(list) {
						return
					}
					i := list[j]
					obj, err := cn.c.Register(ctx, core.Sighting{OID: w.oids[i], T: time.Now(), Pos: initial[i], SensAcc: gen.SensAcc},
						gen.RegDesAcc, gen.RegMinAcc, gen.RegMaxSpeed)
					if err != nil {
						errs[k] = fmt.Errorf("rig: registering %s: %w", w.oids[i], err)
						return
					}
					w.objs[i] = obj
					w.truth[i].pos.Store(pack(initial[i]))
				}
			}(k)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// waitFor polls cond every millisecond until it holds or the timeout
// passes.
func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return context.DeadlineExceeded
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// diags fetches every leaf's diagnostic snapshot through connection 0.
func (w *World) diags() ([]msg.DiagRes, error) {
	cn := w.conns[0]
	out := make([]msg.DiagRes, 0, len(w.leaves))
	for _, leaf := range w.leaves {
		cn.c.SetEntry(leaf)
		d, err := cn.c.Diag(context.Background())
		if err != nil {
			return nil, fmt.Errorf("rig: diag of %s: %w", leaf, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// tierTotals sums the leaves' tier snapshots.
func (w *World) tierTotals() (msg.TierDiag, error) {
	var sum msg.TierDiag
	ds, err := w.diags()
	if err != nil {
		return sum, err
	}
	for _, d := range ds {
		if t := d.Tier; t != nil {
			sum.MemtableBytes += t.MemtableBytes
			sum.Runs += t.Runs
			sum.RunBytes += t.RunBytes
			sum.DiskRecords += t.DiskRecords
			sum.DiskLive += t.DiskLive
			sum.Flushes += t.Flushes
			sum.Compactions += t.Compactions
			sum.BloomHits += t.BloomHits
			sum.BloomMisses += t.BloomMisses
		}
	}
	return sum, nil
}

// Close stops clients, servers and the network.
func (w *World) Close() error {
	for _, cn := range w.conns {
		if cn != nil {
			cn.c.Close()
		}
	}
	var err error
	if w.dep != nil {
		err = w.dep.Close()
	}
	w.net.Close()
	return err
}

// isServer tells the deployment's servers from client nodes.
func (w *World) isServer(id msg.NodeID) bool {
	_, ok := w.dep.Servers[id]
	return ok
}
