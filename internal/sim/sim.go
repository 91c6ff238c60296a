// Package sim deploys a complete location service in-process and drives it
// with configurable workloads: it is the testbed substitute for the paper's
// five-workstation evaluation (Section 7.2) and powers the Table 2
// reproduction as well as the hierarchy, caching, locality and
// update-protocol ablations (indexed in cmd/lsbench's command comment).
//
// The paper's three load-generator machines become worker goroutines; its
// 100 Mbit LAN becomes the in-process transport, optionally with a per-hop
// latency model so that local/remote asymmetries stay visible. It measures
// throughput and latency in wall time, so it reads the wall clock and runs
// its deployments on clock.Real.
package sim

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/metrics"
	"locsvc/internal/msg"
	"locsvc/internal/server"
	"locsvc/internal/transport"
)

// Config describes a simulated deployment.
type Config struct {
	// Spec is the hierarchy shape; defaults to the paper's testbed
	// (1.5 km × 1.5 km, one root, four leaves).
	Spec hierarchy.Spec
	// NumObjects tracked objects are registered at uniformly random
	// positions (the paper registers 10 000).
	NumObjects int
	// ServerOpts apply to every server.
	ServerOpts server.Options
	// HopLatency, if positive, delays every message delivery, modelling
	// LAN hops.
	HopLatency time.Duration
	// Seed makes object placement reproducible.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Spec.RootArea.Empty() {
		c.Spec = hierarchy.Spec{
			RootArea: geo.R(0, 0, 1500, 1500),
			Levels:   []hierarchy.Level{{Rows: 2, Cols: 2}},
		}
	}
	if c.NumObjects == 0 {
		c.NumObjects = 10_000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// World is a running simulated deployment.
type World struct {
	Config  Config
	Net     *transport.Inproc
	Dep     *hierarchy.Deployment
	Objects []*client.TrackedObject

	// Messages counts every delivered transport message.
	messages atomic.Int64

	ownerClients []*client.Client
	objPositions []geo.Point
	objEntryLeaf []msg.NodeID

	t2state
}

// NewWorld deploys the hierarchy and registers the objects.
func NewWorld(cfg Config) (*World, error) {
	cfg = cfg.withDefaults()
	w := &World{Config: cfg}
	opts := transport.InprocOptions{
		OnDeliver: func(_, _ msg.NodeID, _ msg.Message) { w.messages.Add(1) },
	}
	if cfg.HopLatency > 0 {
		opts.Latency = func(_, _ msg.NodeID) time.Duration { return cfg.HopLatency }
	}
	w.Net = transport.NewInproc(opts)

	dep, err := hierarchy.Deploy(w.Net, cfg.Spec, cfg.ServerOpts)
	if err != nil {
		return nil, fmt.Errorf("sim: deploying: %w", err)
	}
	w.Dep = dep

	// One registering client per leaf keeps registration local, like the
	// paper's setup.
	perLeaf := make(map[msg.NodeID]*client.Client)
	for _, leaf := range dep.Leaves() {
		c, cerr := client.New(w.Net, "owner-"+leaf, leaf, client.Options{Timeout: 30 * time.Second})
		if cerr != nil {
			w.Close()
			return nil, fmt.Errorf("sim: owner client: %w", cerr)
		}
		perLeaf[leaf] = c
		w.ownerClients = append(w.ownerClients, c)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	area := cfg.Spec.RootArea
	start := time.Now()
	ctx := context.Background()
	for i := 0; i < cfg.NumObjects; i++ {
		p := geo.Pt(area.Min.X+rng.Float64()*area.Width(), area.Min.Y+rng.Float64()*area.Height())
		leaf, ok := dep.LeafFor(p)
		if !ok {
			w.Close()
			return nil, fmt.Errorf("sim: no leaf for %v", p)
		}
		s := core.Sighting{OID: core.OID(fmt.Sprintf("obj-%d", i)), T: start, Pos: p, SensAcc: 5}
		obj, rerr := perLeaf[leaf].Register(ctx, s, 25, 100, 3)
		if rerr != nil {
			w.Close()
			return nil, fmt.Errorf("sim: registering object %d: %w", i, rerr)
		}
		w.Objects = append(w.Objects, obj)
		w.objPositions = append(w.objPositions, p)
		w.objEntryLeaf = append(w.objEntryLeaf, leaf)
	}

	// Quiesce: createPath propagates leaf-to-root asynchronously
	// (Algorithm 6-1); the world is ready once the root level has a
	// forwarding reference for every object.
	deadline := time.Now().Add(time.Minute)
	for dep.RootVisitorCount() < cfg.NumObjects {
		if time.Now().After(deadline) {
			w.Close()
			return nil, fmt.Errorf("sim: forwarding paths incomplete: %d/%d at root",
				dep.RootVisitorCount(), cfg.NumObjects)
		}
		time.Sleep(time.Millisecond)
	}
	return w, nil
}

// Messages returns the number of transport messages delivered so far.
func (w *World) Messages() int64 { return w.messages.Load() }

// Close tears the world down.
func (w *World) Close() {
	for _, c := range w.ownerClients {
		c.Close()
	}
	w.t2mu.Lock()
	for _, c := range w.t2clients {
		c.Close()
	}
	w.t2mu.Unlock()
	if w.Dep != nil {
		w.Dep.Close()
	}
	if w.Net != nil {
		w.Net.Close()
	}
}

// Mix is a query/update mix: weights need not sum to one.
type Mix struct {
	Updates    float64
	PosQueries float64
	RangeQuery float64
	Neighbor   float64
}

// Load describes one load-generation run.
type Load struct {
	// Workers is the number of concurrent load-generator goroutines (the
	// paper uses parallel client processes on three machines).
	Workers int
	// OpsPerWorker bounds the run.
	OpsPerWorker int
	// Mix selects operation frequencies.
	Mix Mix
	// Locality is the fraction of queries answered in the entry server's
	// own service area: the target object (or area) is chosen from the
	// entry leaf for local operations and from elsewhere for remote ones.
	Locality float64
	// RangeSize is the side length of range-query areas (the paper's
	// medium size is 50 m).
	RangeSize float64
	// Seed drives workload choice.
	Seed int64
}

func (l Load) withDefaults() Load {
	if l.Workers == 0 {
		l.Workers = 12
	}
	if l.OpsPerWorker == 0 {
		l.OpsPerWorker = 500
	}
	if l.RangeSize == 0 {
		l.RangeSize = 50
	}
	if l.Seed == 0 {
		l.Seed = 7
	}
	if l.Mix == (Mix{}) {
		l.Mix = Mix{Updates: 1, PosQueries: 1, RangeQuery: 1}
	}
	return l
}

// OpStats aggregates one operation type's results.
type OpStats struct {
	Count      int64
	Errors     int64
	MeanMs     float64
	P99Ms      float64
	Throughput float64 // operations per second of wall time
}

// Results summarizes a load run.
type Results struct {
	PerOp    map[string]OpStats
	Wall     time.Duration
	Messages int64
}

// Run executes the load and gathers latency statistics per operation type.
func (w *World) Run(ctx context.Context, load Load) (Results, error) {
	load = load.withDefaults()
	if len(w.Objects) == 0 {
		return Results{}, fmt.Errorf("sim: world has no objects")
	}

	reg := metrics.NewRegistry()
	leaves := w.Dep.Leaves()

	// Pre-compute object indexes per leaf for locality targeting.
	perLeaf := make(map[msg.NodeID][]int)
	for i, leaf := range w.objEntryLeaf {
		perLeaf[leaf] = append(perLeaf[leaf], i)
	}

	startMsgs := w.Messages()
	startWall := time.Now()

	var wg sync.WaitGroup
	errCh := make(chan error, load.Workers)
	for wk := 0; wk < load.Workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(load.Seed + int64(wk)*7919))
			// Each worker is a client pinned to one entry leaf,
			// like the paper's per-server load shares.
			entry := leaves[wk%len(leaves)]
			cl, err := client.New(w.Net, msg.NodeID(fmt.Sprintf("gen-%d-%d", load.Seed, wk)), entry, client.Options{Timeout: 30 * time.Second})
			if err != nil {
				errCh <- err
				return
			}
			defer cl.Close()
			if err := w.workerLoop(ctx, cl, entry, rng, load, perLeaf, reg); err != nil {
				errCh <- err
			}
		}(wk)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return Results{}, err
		}
	}

	wall := time.Since(startWall)
	res := Results{
		PerOp:    make(map[string]OpStats),
		Wall:     wall,
		Messages: w.Messages() - startMsgs,
	}
	for _, op := range []string{"update", "pos_local", "pos_remote", "range_local", "range_remote", "neighbor"} {
		h := reg.Histogram(op)
		if h.Count() == 0 {
			continue
		}
		res.PerOp[op] = OpStats{
			Count:      h.Count(),
			Errors:     reg.Counter(op + "_errors").Value(),
			MeanMs:     h.Mean() * 1000,
			P99Ms:      h.Percentile(0.99) * 1000,
			Throughput: float64(h.Count()) / wall.Seconds(),
		}
	}
	return res, nil
}

// workerLoop issues OpsPerWorker operations according to the mix.
func (w *World) workerLoop(ctx context.Context, cl *client.Client, entry msg.NodeID,
	rng *rand.Rand, load Load, perLeaf map[msg.NodeID][]int, reg *metrics.Registry) error {

	total := load.Mix.Updates + load.Mix.PosQueries + load.Mix.RangeQuery + load.Mix.Neighbor
	if total <= 0 {
		return fmt.Errorf("sim: empty mix")
	}
	entryArea := geo.Rect{}
	if srv, ok := w.Dep.Server(entry); ok {
		entryArea = srv.Config().SA.Bounds()
	}
	rootArea := w.Config.Spec.RootArea

	for op := 0; op < load.OpsPerWorker; op++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		local := rng.Float64() < load.Locality
		r := rng.Float64() * total
		switch {
		case r < load.Mix.Updates:
			// Updates are always local (paper): pick an object of
			// this leaf and nudge it without leaving the area.
			idxs := perLeaf[entry]
			if len(idxs) == 0 {
				continue
			}
			i := idxs[rng.Intn(len(idxs))]
			obj := w.Objects[i]
			p := jitterWithin(w.objPositions[i], 10, entryArea, rng)
			s := core.Sighting{OID: obj.OID(), T: time.Now(), Pos: p, SensAcc: 5}
			observe(reg, "update", func() error { return obj.Update(ctx, s) })

		case r < load.Mix.Updates+load.Mix.PosQueries:
			i := w.pickObject(rng, entry, local, perLeaf)
			name := "pos_remote"
			if w.objEntryLeaf[i] == entry {
				name = "pos_local"
			}
			observe(reg, name, func() error {
				_, err := cl.PosQuery(ctx, w.Objects[i].OID())
				return err
			})

		case r < load.Mix.Updates+load.Mix.PosQueries+load.Mix.RangeQuery:
			area := w.pickArea(rng, entryArea, rootArea, local, load.RangeSize)
			name := "range_remote"
			if entryArea.ContainsRect(area) {
				name = "range_local"
			}
			observe(reg, name, func() error {
				_, err := cl.RangeQueryRect(ctx, area, 100, 0.5)
				return err
			})

		default:
			p := randIn(rootArea, rng)
			observe(reg, "neighbor", func() error {
				_, err := cl.NeighborQuery(ctx, p, 100, 0)
				return err
			})
		}
	}
	return nil
}

// pickObject selects a target object honoring locality.
func (w *World) pickObject(rng *rand.Rand, entry msg.NodeID, local bool, perLeaf map[msg.NodeID][]int) int {
	if local {
		if idxs := perLeaf[entry]; len(idxs) > 0 {
			return idxs[rng.Intn(len(idxs))]
		}
	}
	// Remote: draw until the object is not on the entry leaf (bounded
	// attempts; with four leaves the expected number is ~1.3).
	for attempt := 0; attempt < 8; attempt++ {
		i := rng.Intn(len(w.Objects))
		if w.objEntryLeaf[i] != entry {
			return i
		}
	}
	return rng.Intn(len(w.Objects))
}

// pickArea selects a square query area honoring locality.
func (w *World) pickArea(rng *rand.Rand, entryArea, rootArea geo.Rect, local bool, size float64) geo.Rect {
	host := rootArea
	if local && !entryArea.Empty() {
		host = entryArea
	}
	// Keep the square fully inside the host area.
	maxX := host.Max.X - size
	maxY := host.Max.Y - size
	if maxX <= host.Min.X || maxY <= host.Min.Y {
		return host
	}
	x := host.Min.X + rng.Float64()*(maxX-host.Min.X)
	y := host.Min.Y + rng.Float64()*(maxY-host.Min.Y)
	return geo.R(x, y, x+size, y+size)
}

func randIn(r geo.Rect, rng *rand.Rand) geo.Point {
	return geo.Pt(r.Min.X+rng.Float64()*r.Width(), r.Min.Y+rng.Float64()*r.Height())
}

// jitterWithin moves p by up to d in a random direction, clamped strictly
// inside area. The clamp target is inset so a jittered update can never
// land exactly on the (half-open) service-area boundary, which would
// trigger a handover — Table 2's updates are always local, as in the paper.
func jitterWithin(p geo.Point, d float64, area geo.Rect, rng *rand.Rand) geo.Point {
	q := geo.Pt(p.X+(rng.Float64()*2-1)*d, p.Y+(rng.Float64()*2-1)*d)
	if area.Empty() {
		return q
	}
	inset := geo.Rect{
		Min: geo.Point{X: area.Min.X, Y: area.Min.Y},
		Max: geo.Point{X: area.Max.X - 1e-6, Y: area.Max.Y - 1e-6},
	}
	return inset.ClampPoint(q)
}

// observe times one operation into the named histogram.
func observe(reg *metrics.Registry, name string, f func() error) {
	start := time.Now()
	err := f()
	reg.Histogram(name).ObserveDuration(time.Since(start))
	if err != nil {
		reg.Counter(name + "_errors").Inc()
	}
}
