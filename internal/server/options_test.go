package server

import (
	"testing"
	"time"

	"locsvc/internal/store"
)

// TestJanitorIntervalDefaults pins the feature-derived janitor cadence —
// in particular that enabling Tiering caps the tick at 5s, the cadence
// tier maintenance needs, even when a long SightingTTL (or the leisurely
// WAL-compaction default) would otherwise stretch it to minutes, while an
// explicit operator value always wins.
func TestJanitorIntervalDefaults(t *testing.T) {
	tier := &store.TierConfig{}
	for _, tc := range []struct {
		name string
		in   Options
		want time.Duration
	}{
		{"ttl drives", Options{SightingTTL: time.Minute}, 15 * time.Second},
		{"tiering caps long ttl", Options{SightingTTL: 5 * time.Minute, Tiering: tier}, 5 * time.Second},
		{"short ttl under the cap kept", Options{SightingTTL: 8 * time.Second, Tiering: tier}, 2 * time.Second},
		{"tiering alone", Options{Tiering: tier}, 5 * time.Second},
		{"wal alone", Options{SightingWAL: &store.ShardedWAL{}}, time.Minute},
		{"tiering caps wal default", Options{SightingWAL: &store.ShardedWAL{}, Tiering: tier}, 5 * time.Second},
		{"explicit wins", Options{JanitorInterval: 90 * time.Second, SightingTTL: time.Minute, Tiering: tier}, 90 * time.Second},
		{"nothing enabled", Options{}, 0},
	} {
		got := tc.in.withDefaults().JanitorInterval
		if got != tc.want {
			t.Errorf("%s: JanitorInterval = %v, want %v", tc.name, got, tc.want)
		}
	}
}
