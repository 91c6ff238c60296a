// Command lssim runs a full mobility simulation against an in-process
// deployment of the location service: objects move according to a chosen
// mobility model and report via the distance-based update protocol while a
// query load runs concurrently. It prints the system-level statistics the
// paper's future-work section asks about — handover rates, update volume,
// query latencies — for a given hierarchy shape and movement pattern.
//
//	lssim -objects 500 -duration 60s -model waypoint -speed 15
//	lssim -objects 200 -model manhattan -depth 2 -fanout 2
//	lssim -objects 300 -model hotspot -queries 50
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/metrics"
	"locsvc/internal/mobility"
	"locsvc/internal/msg"
	"locsvc/internal/object"
	"locsvc/internal/server"
	"locsvc/internal/transport"
)

func main() {
	var (
		numObjects = flag.Int("objects", 200, "number of tracked objects")
		duration   = flag.Duration("duration", 30*time.Second, "simulated time span")
		tick       = flag.Duration("tick", time.Second, "simulation tick")
		model      = flag.String("model", "waypoint", "mobility model: waypoint, manhattan, hotspot, stationary")
		speed      = flag.Float64("speed", 10, "object speed in m/s")
		area       = flag.Float64("area", 1500, "side of the square service area (m)")
		depth      = flag.Int("depth", 1, "hierarchy levels below the root")
		fanout     = flag.Int("fanout", 2, "grid fan-out per level")
		queries    = flag.Int("queries", 20, "position+range queries per simulated second")
		seed       = flag.Int64("seed", 1, "random seed")
		caches     = flag.Bool("caches", false, "enable Section 6.5 caches")
	)
	flag.Parse()

	var levels []hierarchy.Level
	for i := 0; i < *depth; i++ {
		levels = append(levels, hierarchy.Level{Rows: *fanout, Cols: *fanout})
	}
	spec := hierarchy.Spec{RootArea: geo.R(0, 0, *area, *area), Levels: levels}

	var delivered atomic.Int64
	net := transport.NewInproc(transport.InprocOptions{
		OnDeliver: func(_, _ msg.NodeID, _ msg.Message) { delivered.Add(1) },
	})
	reg := metrics.NewRegistry()
	dep, err := hierarchy.Deploy(net, spec, server.Options{
		AchievableAcc:    10,
		Metrics:          reg,
		EnableAreaCache:  *caches,
		EnableAgentCache: *caches,
		EnablePosCache:   *caches,
	})
	if err != nil {
		fatal(err)
	}
	defer func() {
		dep.Close()
		net.Close()
	}()

	fmt.Printf("lssim: %d servers (%d leaves), %d objects, model=%s, %.0f m/s, %v simulated\n",
		spec.NumServers(), len(dep.Leaves()), *numObjects, *model, *speed, *duration)

	// Spawn the objects.
	ctx := context.Background()
	start := time.Date(2026, 6, 12, 8, 0, 0, 0, time.UTC)
	movement := geo.R(5, 5, *area-5, *area-5)
	sims := make([]*object.Sim, 0, *numObjects)
	for i := 0; i < *numObjects; i++ {
		m := makeModel(*model, movement, *speed, *seed+int64(i))
		entry, ok := dep.LeafFor(m.Pos())
		if !ok {
			fatal(fmt.Errorf("no leaf for %v", m.Pos()))
		}
		c, cerr := client.New(net, msg.NodeID(fmt.Sprintf("obj-node-%d", i)), entry, client.Options{})
		if cerr != nil {
			fatal(cerr)
		}
		s, serr := object.NewSim(ctx, c, core.OID(fmt.Sprintf("obj-%d", i)),
			m, &object.DistanceBased{}, 5, 25, 100, *speed, *seed+int64(i), start)
		if serr != nil {
			fatal(serr)
		}
		sims = append(sims, s)
	}

	// Query load: one client per leaf; queries are issued inline per
	// simulated second so the load scales with simulated (not wall)
	// time.
	qreg := metrics.NewRegistry()
	var qClients []*client.Client
	for i, leaf := range dep.Leaves() {
		cl, cerr := client.New(net, msg.NodeID(fmt.Sprintf("query-%d", i)), leaf, client.Options{})
		if cerr != nil {
			fatal(cerr)
		}
		defer cl.Close()
		qClients = append(qClients, cl)
	}
	qrng := rand.New(rand.NewSource(*seed + 999))

	// Drive the simulation.
	ticks := int(*duration / *tick)
	updates := 0
	for t := 0; t < ticks; t++ {
		for _, s := range sims {
			sent, err := s.Tick(ctx, *tick)
			if err != nil {
				fatal(err)
			}
			if sent {
				updates++
			}
		}
		perTick := int(float64(*queries) * tick.Seconds())
		for q := 0; q < perTick; q++ {
			cl := qClients[qrng.Intn(len(qClients))]
			issueQuery(ctx, cl, qrng, *numObjects, movement, qreg)
		}
	}

	// Gather statistics.
	handovers := reg.Counter("handover_initiated").Value()
	expired := reg.Counter("soft_state_expired").Value()

	var meanDev, maxDev float64
	for _, s := range sims {
		st := s.Stats()
		meanDev += st.MeanDev
		if st.MaxDev > maxDev {
			maxDev = st.MaxDev
		}
	}
	meanDev /= float64(len(sims))

	fmt.Printf("\nsimulated %d s of movement\n", ticks)
	fmt.Printf("  updates sent:          %d (%.2f per object-minute)\n",
		updates, float64(updates)/float64(*numObjects)/(float64(ticks)/60))
	if updates == 0 {
		updates = 1
	}
	fmt.Printf("  handovers:             %d (%.1f%% of updates)\n",
		handovers, 100*float64(handovers)/float64(updates))
	fmt.Printf("  soft-state expiries:   %d\n", expired)
	fmt.Printf("  position deviation:    mean %.1f m, max %.1f m\n", meanDev, maxDev)
	fmt.Printf("  transport messages:    %d\n", delivered.Load())
	if h := qreg.Histogram("pos"); h.Count() > 0 {
		fmt.Printf("  position queries:      %d, mean %.2f ms, p99 %.2f ms\n",
			h.Count(), h.Mean()*1000, h.Percentile(0.99)*1000)
	}
	if h := qreg.Histogram("range"); h.Count() > 0 {
		fmt.Printf("  range queries:         %d, mean %.2f ms, p99 %.2f ms\n",
			h.Count(), h.Mean()*1000, h.Percentile(0.99)*1000)
	}
	if errs := qreg.Counter("query_errors").Value(); errs > 0 {
		fmt.Printf("  query errors:          %d (transient, during handovers)\n", errs)
	}
}

func makeModel(name string, area geo.Rect, speed float64, seed int64) mobility.Model {
	switch name {
	case "manhattan":
		return mobility.NewManhattanGrid(area, 100, speed, seed)
	case "hotspot":
		centers := []geo.Point{
			{X: area.Min.X + area.Width()*0.25, Y: area.Min.Y + area.Height()*0.25},
			{X: area.Min.X + area.Width()*0.75, Y: area.Min.Y + area.Height()*0.75},
		}
		return mobility.NewHotspot(area, centers, area.Width()/20, speed, 0.05, seed)
	case "stationary":
		rng := rand.New(rand.NewSource(seed))
		return mobility.NewStationary(geo.Pt(
			area.Min.X+rng.Float64()*area.Width(),
			area.Min.Y+rng.Float64()*area.Height()))
	default:
		return mobility.NewRandomWaypoint(area, speed/2, speed, 5, seed)
	}
}

func issueQuery(ctx context.Context, cl *client.Client, rng *rand.Rand, numObjects int, area geo.Rect, reg *metrics.Registry) {
	start := time.Now()
	var err error
	var kind string
	if rng.Intn(2) == 0 {
		kind = "pos"
		oid := core.OID(fmt.Sprintf("obj-%d", rng.Intn(numObjects)))
		_, err = cl.PosQuery(ctx, oid)
	} else {
		kind = "range"
		x := area.Min.X + rng.Float64()*(area.Width()-100)
		y := area.Min.Y + rng.Float64()*(area.Height()-100)
		_, err = cl.RangeQueryRect(ctx, geo.R(x, y, x+100, y+100), 100, 0.5)
	}
	reg.Histogram(kind).ObserveDuration(time.Since(start))
	if err != nil {
		reg.Counter("query_errors").Inc()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lssim:", err)
	os.Exit(1)
}
