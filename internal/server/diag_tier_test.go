package server

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
	"locsvc/internal/store"
	"locsvc/internal/transport"
)

// waitUntil polls cond until it holds or ten seconds of wall time pass: the
// janitor's flushes and gauge refreshes signal nothing a test could wait on.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDiagExportsTierReadErrors follows a damaged run file to the
// operator: the store counts the failed read, the janitor exports it as
// gauge sighting_tier_read_errors, and the diagnostics reply's metrics
// snapshot (what lsctl stats prints) carries it.
func TestDiagExportsTierReadErrors(t *testing.T) {
	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()
	dir := t.TempDir()
	wal, err := store.OpenShardedWAL(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(store.ConfigRecord{ID: "leafA", SA: kmSquare()}, kmSquare(), net, Options{
		SightingWAL:     wal,
		Tiering:         &store.TierConfig{MemtableBytes: 1},
		JanitorInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sdb := s.sightings
	for i := 0; i < 400; i++ {
		s.pipe.Put(core.Sighting{OID: core.OID(fmt.Sprintf("o%03d", i)), T: time.Now(), Pos: geo.Pt(float64(1+i%999), float64(1+(i*7)%999)), SensAcc: 5})
	}
	waitUntil(t, "a flush", func() bool { return s.Metrics().Gauge("sighting_runs").Value() > 0 })
	if v := s.Metrics().Gauge("sighting_tier_read_errors").Value(); v != 0 {
		t.Fatalf("sighting_tier_read_errors = %d on undamaged runs", v)
	}

	// Break the first record's id length in every run file; a full
	// enumeration then fails each run's data checksum.
	runs, err := filepath.Glob(filepath.Join(dir, "run-*.run"))
	if err != nil || len(runs) == 0 {
		t.Fatalf("no run files to damage: %v, %v", runs, err)
	}
	for _, path := range runs {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // compacted away meanwhile
		}
		data[1] = 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sdb.ForEach(func(core.Sighting) bool { return true })
	if sdb.TierStats().ReadErrors == 0 {
		t.Fatal("store did not count the damaged runs")
	}
	waitUntil(t, "the janitor's gauge refresh", func() bool {
		return s.Metrics().Gauge("sighting_tier_read_errors").Value() > 0
	})
	res, err := s.handleDiag()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.(msg.DiagRes).Metrics, "sighting_tier_read_errors") {
		t.Fatalf("metrics snapshot lacks the gauge:\n%s", res.(msg.DiagRes).Metrics)
	}
}
