// Package metrics provides the counters and latency histograms used by the
// location servers, the simulation harness and the benchmark tables. It is
// intentionally small: atomic counters, reservoir-sampled histograms with
// percentiles, and a registry with stable snapshot output.
package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value — occupancy, shard counts,
// queue depths. Unlike a Counter it moves in both directions.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// reservoirSize bounds histogram memory; large enough for stable p99 on the
// workloads in this repository.
const reservoirSize = 8192

// Histogram records value samples (typically latencies in seconds) with
// reservoir sampling, retaining exact count, sum and max.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	count   int64
	sum     float64
	max     float64
	rng     *rand.Rand
}

// histSeed distinguishes the reservoir RNG of every histogram created in
// the process. A shared fixed seed would make all histograms sample the
// same observation indices, so correlated input streams (the same latency
// measured at two points, say) would retain identically biased reservoirs
// and their percentile estimates would share, rather than average out,
// the sampling error.
var histSeed atomic.Uint64

// NewHistogram returns an empty histogram with an independently seeded
// reservoir.
func NewHistogram() *Histogram {
	// The wall clock only makes seeds differ between processes.
	seed := histSeed.Add(0x9E3779B97F4A7C15) ^ uint64(time.Now().UnixNano())
	return &Histogram{
		samples: make([]float64, 0, reservoirSize),
		max:     math.Inf(-1),
		rng:     rand.New(rand.NewSource(int64(seed))),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	if len(h.samples) < reservoirSize {
		h.samples = append(h.samples, v)
		return
	}
	// Vitter's algorithm R.
	if i := h.rng.Int63n(h.count); i < reservoirSize {
		h.samples[i] = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the exact mean of all observations (not just the reservoir).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest observation, or 0 if empty.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Percentile returns the p-quantile (p in [0,1]) estimated from the
// reservoir.
func (h *Histogram) Percentile(p float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	sorted := make([]float64, len(h.samples))
	copy(sorted, h.samples)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := p * float64(len(sorted)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return sorted[lo]
	}
	frac := idx - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Registry is a named collection of counters, gauges and histograms.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the counter with the given name.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge with the given name.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the histogram with the given name.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Snapshot renders all metrics sorted by name, one per line.
func (r *Registry) Snapshot() string {
	r.mu.Lock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, "c:"+n)
	}
	for n := range r.gauges {
		names = append(names, "g:"+n)
	}
	for n := range r.hists {
		names = append(names, "h:"+n)
	}
	r.mu.Unlock()
	sort.Strings(names)

	var b strings.Builder
	for _, n := range names {
		kind, name := n[:1], n[2:]
		switch kind {
		case "c":
			fmt.Fprintf(&b, "%s = %d\n", name, r.Counter(name).Value())
		case "g":
			fmt.Fprintf(&b, "%s = %d\n", name, r.Gauge(name).Value())
		case "h":
			h := r.Histogram(name)
			fmt.Fprintf(&b, "%s: n=%d mean=%.6f p50=%.6f p99=%.6f max=%.6f\n",
				name, h.Count(), h.Mean(), h.Percentile(0.5), h.Percentile(0.99), h.Max())
		}
	}
	return b.String()
}
