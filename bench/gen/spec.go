// Package gen holds the benchmark's workload definitions and the
// deterministic generator that turns (workload, seed) into a population and
// two op streams. It is the only package that sees a workload name or a
// seed, and it imports nothing of the service but the plain geometry types:
// the service receives only the sightings and queries generated here.
package gen

import (
	"fmt"
	"time"

	"locsvc/internal/geo"
)

// Streams is the number of op streams, one per generator goroutine and
// client connection (the reference container's nproc).
const Streams = 2

// Grid is one hierarchy level's rows × cols split.
type Grid struct{ Rows, Cols int }

// Deploy describes the service deployment a workload runs against. It is
// everything the rig learns about a workload: it carries no name and no
// seed (gen_test.go checks that).
type Deploy struct {
	// Side is the edge of the square root area in metres.
	Side float64
	// Levels is the hierarchy below the root.
	Levels []Grid
	// UDP runs every node on a real loopback socket instead of Inproc.
	UDP bool
	// WAL gives every server a visitor log and every leaf a sighting log.
	WAL bool
	// Shards is each leaf's sighting-store shard count.
	Shards int
	// Caches turns on the three leaf caches.
	Caches bool
	// MemtableBytes > 0 enables tiered storage with that per-leaf budget.
	MemtableBytes int64
	// Janitor pins the leaves' janitor interval (flush and compaction
	// cadence on tiered leaves).
	Janitor time.Duration
	// Pipeline > 1 makes each connection keep that many async ops in
	// flight; 1 issues blocking ops.
	Pipeline int
	// PosAccBound is the accuracy bound position queries carry; > 0 lets
	// the entry leaf answer from its position cache.
	PosAccBound float64
	// Tripwires are the count-above-1 subscription cells, installed
	// before the phases start.
	Tripwires []geo.Rect
	// PacedRate is the open-loop phase's total op rate per second: set
	// once to about half the closed-loop throughput measured on the
	// reference container, never derived at run time.
	PacedRate float64
	// MinFlushes and MinCompactions are per-shard floors the measured
	// phases must reach on a tiered deployment.
	MinFlushes, MinCompactions int
	// Reopen closes the service after the phases, reopens it on the same
	// directory and verifies a sample of acknowledged positions.
	Reopen bool
	// SkipChecks turns the answer checks off (-check=false).
	SkipChecks bool
}

// Leaves returns the number of leaf servers.
func (d Deploy) Leaves() int {
	n := 1
	for _, l := range d.Levels {
		n *= l.Rows * l.Cols
	}
	return n
}

// LeafOf returns the index of the leaf responsible for p in the
// hierarchy's build order (depth first, each level row-major), together
// with the leaf's area.
func (d Deploy) LeafOf(p geo.Point) (int, geo.Rect) {
	area := geo.R(0, 0, d.Side, d.Side)
	idx := 0
	for _, l := range d.Levels {
		w, h := area.Width()/float64(l.Cols), area.Height()/float64(l.Rows)
		j := clampInt(int((p.X-area.Min.X)/w), 0, l.Cols-1)
		i := clampInt(int((p.Y-area.Min.Y)/h), 0, l.Rows-1)
		idx = idx*l.Rows*l.Cols + i*l.Cols + j
		min := geo.Pt(area.Min.X+float64(j)*w, area.Min.Y+float64(i)*h)
		area = geo.Rect{Min: min, Max: geo.Pt(min.X+w, min.Y+h)}
	}
	return idx, area
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Mix is a workload's op mix in percent; the rest are plain updates.
type Mix struct {
	PosQ, RangeQ, NNQ int
}

// Spec is one workload: the deployment plus what the generator needs.
type Spec struct {
	Name string
	Why  string
	Deploy
	Objects int
	Mix     Mix
	model   model
}

// model selects the population layout and movement rules.
type model int

const (
	modelCommute model = iota
	modelCity
	modelTiered
	modelEvents
)

// Query parameters shared by generator, rig and checker.
const (
	// RegDesAcc..RegMaxSpeed are the registration parameters of every
	// object; with the leaves' default achievable accuracy of 10 m every
	// object is offered exactly 10 m.
	RegDesAcc   = 10
	RegMinAcc   = 50
	RegMaxSpeed = 20
	// SensAcc is every sighting's sensor accuracy.
	SensAcc = 5
	// RangeReqAcc and RangeReqOverlap are the range-query thresholds:
	// with half the location area required inside, an object qualifies
	// roughly when its recorded position lies in the query rectangle.
	RangeReqAcc     = 50
	RangeReqOverlap = 0.5
	// NNReqAcc and NNNearQual are the nearest-neighbour thresholds.
	NNReqAcc   = 50
	NNNearQual = 20
	// TripReqAcc enlarges a tripwire cell by less than the corridor
	// between cells, so a subscription never spans two leaves.
	TripReqAcc = 12
)

// Tripwire grid of the events workload: 50 m cells on an 80 m pitch, so
// cells are disjoint, leaf boundaries (multiples of 2000 m) fall into the
// corridors between them, and an object 10 m outside a cell does not
// overlap it.
const (
	tripPitch  = 80.0
	tripMargin = 15.0
	tripCols   = 50
)

func tripCell(k int) geo.Rect {
	x := float64(k%tripCols) * tripPitch
	y := float64(k/tripCols) * tripPitch
	return geo.R(x+tripMargin, y+tripMargin, x+tripPitch-tripMargin, y+tripPitch-tripMargin)
}

// Workloads returns the four workloads in their fixed order. Population
// sizes and paced rates are the values fitted to the driver's time cap on
// the 2-core reference container (see README.md).
func Workloads() []Spec {
	twoByTwo := Grid{Rows: 2, Cols: 2}
	events := Spec{
		Name: "udp_events",
		Why:  "network, codec and event path: loopback UDP with batching, pipelined async clients, 2000 tripwire subscriptions; only here do wire, the coalescer and the notifier work",
		Deploy: Deploy{
			Side: 4000, Levels: []Grid{twoByTwo}, UDP: true, Shards: 1,
			Janitor: time.Minute, Pipeline: 64, PacedRate: 12000,
		},
		Objects: 20000,
		Mix:     Mix{PosQ: 20},
		model:   modelEvents,
	}
	for k := 0; k < 2000; k++ {
		events.Tripwires = append(events.Tripwires, tripCell(k))
	}
	return []Spec{
		{
			Name: "commute_updates",
			Why:  "write path and handovers: 100% updates over 16 leaves with WAL, commuters crossing leaf boundaries; no query runs, so a read-side or codec change must show no change",
			Deploy: Deploy{
				Side: 8000, Levels: []Grid{twoByTwo, twoByTwo}, WAL: true, Shards: 2,
				Janitor: time.Minute, Pipeline: 1, PacedRate: 35000,
			},
			Objects: 40000,
			model:   modelCommute,
		},
		{
			Name: "city_queries",
			Why:  "read path: position, range and nearest-neighbour queries with 10% in-leaf updates on an all-RAM 16-leaf tree with caches; WAL and tiers idle, so a write-side gain that costs reads shows",
			Deploy: Deploy{
				Side: 8000, Levels: []Grid{twoByTwo, twoByTwo}, Shards: 1, Caches: true,
				Janitor: time.Minute, Pipeline: 1, PosAccBound: 50, PacedRate: 2500,
			},
			Objects: 40000,
			Mix:     Mix{PosQ: 45, RangeQ: 35, NNQ: 10},
			model:   modelCity,
		},
		{
			Name: "tiered_cold",
			Why:  "storage tier: 4 leaves whose data exceeds the memtable, cold gets via bloom+pread, range scans over runs, flushes and compactions during the run, reopen check at the end",
			Deploy: Deploy{
				Side: 4000, Levels: []Grid{twoByTwo}, WAL: true, Shards: 2,
				MemtableBytes: 64 << 10, Janitor: 50 * time.Millisecond, Pipeline: 1,
				PacedRate: 1000, MinFlushes: 3, MinCompactions: 1, Reopen: true,
			},
			Objects: 40000,
			Mix:     Mix{PosQ: 40, RangeQ: 10},
			model:   modelTiered,
		},
		events,
	}
}

// Lookup returns the workload with the given name.
func Lookup(name string) (Spec, error) {
	for _, s := range Workloads() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("gen: unknown workload %q", name)
}

// Scaled returns a copy of s shrunk to the given population for smoke
// tests: the memtable budget shrinks with it, the tripwires are cut to the
// given count, and the tier-activity floors (which need the full run
// length) are dropped.
func (s Spec) Scaled(objects, tripwires int) Spec {
	s.MemtableBytes = s.MemtableBytes * int64(objects) / int64(s.Objects)
	s.Objects = objects
	if len(s.Tripwires) > tripwires {
		s.Tripwires = s.Tripwires[:tripwires]
	}
	s.MinFlushes, s.MinCompactions = 0, 0
	return s
}
