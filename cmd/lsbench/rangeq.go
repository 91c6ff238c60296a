package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/server"
	"locsvc/internal/transport"
)

// ---------------------------------------------------------------------------
// Table Q: leaf range and nearest-neighbor qualification. One leaf (root ==
// leaf, no hop latency, the benchmark's thresholds: reqAcc 50 m, overlap
// 0.5, every object offered 10 m) answers square range queries sized for
// about 50, 500 and 5 000 index candidates, and local nearest-neighbor
// queries, from one blocking client. Every row is measured beside an
// "empty" query — a square with no candidate — that pays the same client,
// transport and handler costs, so the columns "over empty" isolate what the
// candidates cost at the leaf: time per candidate and allocations per
// query. The share of candidates that needed the exact circle∩polygon
// arithmetic, and of those resolved through the visitorDB, come from the
// leaf's range_* counters (absent before the covering index: every
// candidate took both). Uses only the public deployment and client API, so
// the same file measures older commits. Recorded runs live in
// BENCH_range_qualify.json.

func tableRangeQualify(quick bool) {
	const (
		side       = 4000.0 // service area edge
		populated  = 3800.0 // objects live in [0, populated)²; the rest stays empty
		objects    = 40_000
		offered    = 10.0
		reqAcc     = 50.0
		reqOverlap = 0.5
		nearQual   = 20.0
	)
	queries := 4000
	if quick {
		queries = 400
	}
	fmt.Printf("\nTable Q: leaf range/NN qualification (one leaf, %d objects at %.0f m accuracy, reqAcc %.0f m, overlap %.1f)\n\n",
		objects, offered, reqAcc, reqOverlap)

	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()
	dep, err := hierarchy.Deploy(net, hierarchy.Spec{RootArea: geo.R(0, 0, side, side)}, server.Options{AchievableAcc: offered})
	if err != nil {
		fatal(err)
	}
	defer dep.Close()
	leaf := dep.Servers[dep.Root()]
	c, err := client.New(net, "bench", dep.Root(), client.Options{})
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	rng := rand.New(rand.NewSource(1))
	positions := make([]geo.Point, objects)
	for i := range positions {
		positions[i] = geo.Pt(rng.Float64()*populated, rng.Float64()*populated)
		s := core.Sighting{OID: core.OID(fmt.Sprintf("obj-%05d", i)), T: time.Now(), Pos: positions[i], SensAcc: 5}
		if _, err := c.Register(ctx, s, offered, 100, 3); err != nil {
			fatal(err)
		}
	}
	density := objects / (populated * populated)

	counter := func(name string) int64 { return leaf.Metrics().Counter(name).Value() }
	type sample struct {
		us, allocs, results       float64
		candidates, exact, lookup int64
	}
	// measure runs op over the prepared inputs and returns per-call means.
	measure := func(n int, op func(i int) int) sample {
		for i := 0; i < n/10+1; i++ { // warm pools and caches
			op(i)
		}
		cand0, exact0, look0 := counter("range_candidates"), counter("range_exact_overlap"), counter("range_acc_lookups")
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		results := 0
		start := time.Now()
		for i := 0; i < n; i++ {
			results += op(i)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		return sample{
			us:         float64(elapsed.Microseconds()) / float64(n),
			allocs:     float64(after.Mallocs-before.Mallocs) / float64(n),
			results:    float64(results) / float64(n),
			candidates: counter("range_candidates") - cand0,
			exact:      counter("range_exact_overlap") - exact0,
			lookup:     counter("range_acc_lookups") - look0,
		}
	}
	rangeOp := func(rects []geo.Rect) func(i int) int {
		return func(i int) int {
			res, err := c.RangeQueryFull(ctx, core.AreaFromRect(rects[i%len(rects)]), reqAcc, reqOverlap)
			if err != nil {
				fatal(err)
			}
			return len(res.Objs)
		}
	}

	// The floor: a query whose enlarged bounds hold no object.
	emptyRect := geo.R(side-60, side-60, side-59, side-59)
	empty := measure(queries, rangeOp([]geo.Rect{emptyRect}))
	if empty.results != 0 {
		fatal(fmt.Errorf("table Q: the empty query returned %.1f results", empty.results))
	}

	fmt.Printf("%-22s %10s %9s %10s %11s %12s %11s %12s %8s %9s\n",
		"query", "cand/query", "results", "us/query", "over empty", "ns/candidate", "allocs/qry", "over empty", "exact", "lookups")
	share := func(part, whole int64) string {
		if whole == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(whole))
	}
	row := func(name string, candidates float64, s sample) {
		perCand := math.NaN()
		if candidates > 0 {
			perCand = (s.us - empty.us) * 1000 / candidates
		}
		fmt.Printf("%-22s %10.0f %9.0f %10.1f %11.1f %12.1f %11.1f %12.1f %8s %9s\n",
			name, candidates, s.results, s.us, s.us-empty.us, perCand, s.allocs, s.allocs-empty.allocs,
			share(s.exact, s.candidates), share(s.lookup, s.candidates))
	}
	row("range, empty", 0, empty)

	for _, target := range []float64{50, 500, 5000} {
		// (edge + 2·reqAcc)² · density = target candidates.
		edge := math.Sqrt(target/density) - 2*reqAcc
		rects := make([]geo.Rect, 64)
		inBounds := 0
		for k := range rects {
			x, y := reqAcc+rng.Float64()*(populated-edge-2*reqAcc), reqAcc+rng.Float64()*(populated-edge-2*reqAcc)
			rects[k] = geo.R(x, y, x+edge, y+edge)
			enlarged := rects[k].Enlarge(reqAcc)
			for _, p := range positions {
				if enlarged.ContainsClosed(p) {
					inBounds++
				}
			}
		}
		s := measure(queries, rangeOp(rects))
		row(fmt.Sprintf("range, %.0f m square", edge), float64(inBounds)/float64(len(rects)), s)
	}

	points := make([]geo.Point, 64)
	for k := range points {
		points[k] = geo.Pt(200+rng.Float64()*(populated-400), 200+rng.Float64()*(populated-400))
	}
	nn := measure(queries, func(i int) int {
		res, err := c.NeighborQuery(ctx, points[i%len(points)], reqAcc, nearQual)
		if err != nil {
			fatal(err)
		}
		return 1 + len(res.Near)
	})
	// The collection window of a local NN query: nearest distance (about
	// half the mean spacing) + nearQual + 1, enlarged by reqAcc.
	nnEdge := 2 * (0.5/math.Sqrt(density) + nearQual + 1 + reqAcc)
	row("nearest neighbor", nnEdge*nnEdge*density, nn)
	if fast := counter("neighbor_query_local_fast"); fast == 0 {
		fmt.Println("\n(no nearest-neighbor query took the local fast path)")
	}
}
