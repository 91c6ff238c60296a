package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("Value = %d", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 16_000 {
		t.Errorf("Value = %d, want 16000", got)
	}
}

func TestHistogramStats(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if got := h.Count(); got != 100 {
		t.Errorf("Count = %d", got)
	}
	if got := h.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("Mean = %v", got)
	}
	if got := h.Max(); got != 100 {
		t.Errorf("Max = %v", got)
	}
	if got := h.Percentile(0.5); math.Abs(got-50.5) > 1 {
		t.Errorf("p50 = %v", got)
	}
	if got := h.Percentile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := h.Percentile(1); got != 100 {
		t.Errorf("p100 = %v", got)
	}
	if got := h.Percentile(0.99); got < 95 || got > 100 {
		t.Errorf("p99 = %v", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Max() != 0 || h.Percentile(0.5) != 0 {
		t.Error("empty histogram returned nonzero stats")
	}
}

func TestHistogramReservoirBounded(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100_000; i++ {
		h.Observe(float64(i % 1000))
	}
	if got := h.Count(); got != 100_000 {
		t.Errorf("Count = %d", got)
	}
	if len(h.samples) > reservoirSize {
		t.Errorf("reservoir grew to %d", len(h.samples))
	}
	// p50 of a uniform 0..999 stream should be near 500.
	if got := h.Percentile(0.5); got < 400 || got > 600 {
		t.Errorf("p50 = %v, want ~500", got)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("updates").Add(3)
	if got := r.Counter("updates").Value(); got != 3 {
		t.Errorf("counter reuse broken: %d", got)
	}
	r.Histogram("latency").Observe(0.001)
	snap := r.Snapshot()
	if !strings.Contains(snap, "updates = 3") {
		t.Errorf("snapshot missing counter: %q", snap)
	}
	if !strings.Contains(snap, "latency: n=1") {
		t.Errorf("snapshot missing histogram: %q", snap)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 1600 {
		t.Errorf("counter = %d", got)
	}
	if got := r.Histogram("h").Count(); got != 1600 {
		t.Errorf("histogram count = %d", got)
	}
}

// TestHistogramReservoirsIndependent: two histograms fed the identical
// over-capacity stream must not retain identical reservoirs — a shared
// fixed RNG seed would make every histogram sample the same observation
// indices, so correlated streams would share their sampling bias instead
// of averaging it out.
func TestHistogramReservoirsIndependent(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	const n = 4 * reservoirSize
	for i := 0; i < n; i++ {
		v := float64(i)
		a.Observe(v)
		b.Observe(v)
	}
	a.mu.Lock()
	sa := append([]float64(nil), a.samples...)
	a.mu.Unlock()
	b.mu.Lock()
	sb := append([]float64(nil), b.samples...)
	b.mu.Unlock()
	if len(sa) != reservoirSize || len(sb) != reservoirSize {
		t.Fatalf("reservoir sizes %d / %d, want %d", len(sa), len(sb), reservoirSize)
	}
	same := true
	for i := range sa {
		if sa[i] != sb[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two histograms sampled the identical reservoir from the same stream (shared RNG seed)")
	}
	// Exact aggregate statistics are unaffected by the reservoir.
	if a.Count() != n || a.Mean() != b.Mean() || a.Max() != b.Max() {
		t.Errorf("aggregate stats diverged: count %d mean %g/%g", a.Count(), a.Mean(), b.Mean())
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("shards")
	g.Set(8)
	g.Add(-2)
	if got := r.Gauge("shards").Value(); got != 6 {
		t.Errorf("gauge = %d, want 6", got)
	}
	snap := r.Snapshot()
	if !strings.Contains(snap, "shards = 6") {
		t.Errorf("snapshot missing gauge: %q", snap)
	}
}
