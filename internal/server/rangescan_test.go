package server

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
	"locsvc/internal/store"
	"locsvc/internal/transport"
)

// newScanLeaf builds a lone all-RAM leaf (root == leaf) over a 4 km square.
func newScanLeaf(t testing.TB, opts Options) *Server {
	t.Helper()
	net := transport.NewInproc(transport.InprocOptions{})
	area := core.AreaFromRect(geo.R(0, 0, 4000, 4000))
	s, err := New(store.ConfigRecord{ID: "leaf", SA: area}, area, net, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		net.Close()
	})
	return s
}

// install registers object i at p the way registration does: the
// registration and the sighting in one store operation.
func install(t testing.TB, s *Server, i int, p geo.Point, acc float64) core.OID {
	t.Helper()
	oid := core.OID(fmt.Sprintf("o%05d", i))
	if err := s.register(core.Sighting{OID: oid, T: time.Now(), Pos: p, SensAcc: 5}, core.RegInfo{DesAcc: acc, MinAcc: 500}, acc); err != nil {
		t.Fatal(err)
	}
	return oid
}

// TestLocalRangeQueryAllocs pins the result assembly: a local range query
// returning 1 000 entries allocates its result and nothing that grows with
// the candidates.
func TestLocalRangeQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, shards := range []int{1, 4} {
		s := newScanLeaf(t, Options{Shards: shards})
		// 1 000 objects inside the query square, 1 000 around it.
		n := 0
		for x := 0; x < 50; x++ {
			for y := 0; y < 40; y++ {
				install(t, s, n, geo.Pt(505+float64(x)*10, 505+float64(y)*10), 5)
				n++
			}
		}
		area := core.AreaFromRect(geo.R(500, 500, 1000, 700))
		enlarged := area.Bounds().Enlarge(50)
		var res []core.Entry
		allocs := testing.AllocsPerRun(50, func() {
			res = s.localRangeResult(area, 50, 0.5, enlarged)
		})
		if len(res) != 1000 {
			t.Fatalf("shards=%d: %d results, want 1000", shards, len(res))
		}
		if allocs > 2 {
			t.Errorf("shards=%d: %.1f allocations per 1000-result local range query, want <= 2", shards, allocs)
		}
	}
}

// TestUpdateAfterChangeAccKeepsAccuracy replays, step by step, the
// interleaving in which an update read its registration before a ChangeAcc
// ran to completion and only then put its sighting: the put carries no
// accuracy, so the entry keeps the one ChangeAcc wrote — on the memtable
// entry it replaces, and on a fresh entry after the old one left for a run.
func TestUpdateAfterChangeAccKeepsAccuracy(t *testing.T) {
	wal, err := store.OpenShardedWAL(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tiered := Options{SightingWAL: wal, Tiering: &store.TierConfig{MemtableBytes: 1}}
	for name, opts := range map[string]Options{"memtable": {}, "after a flush": tiered} {
		s := newScanLeaf(t, opts)
		oid := install(t, s, 1, geo.Pt(100, 100), 10)
		reg, ok := s.sightings.Registration(oid) // the update's read: OfferedAcc 10
		if !ok || reg.OfferedAcc != 10 {
			t.Fatalf("%s: registration %+v, %v", name, reg, ok)
		}
		res, err := s.handleChangeAcc(msg.ChangeAccReq{OID: oid, DesAcc: 40, MinAcc: 500})
		if err != nil || !res.(msg.ChangeAccRes).OK {
			t.Fatalf("%s: ChangeAcc = %+v, %v", name, res, err)
		}
		if opts.Tiering != nil {
			// Unregistered filler far away pushes the shard over its
			// memtable budget.
			for i := 0; i < 40; i++ {
				s.sightings.Put(core.Sighting{OID: core.OID(fmt.Sprintf("f%02d", i)), T: time.Now(), Pos: geo.Pt(3000, 3000), SensAcc: 5})
			}
			if err := s.sightings.MaintainTiers(); err != nil || s.sightings.TierStats().Flushes == 0 {
				t.Fatalf("%s: no flush (%v)", name, err)
			}
		}
		s.pipe.Put(core.Sighting{OID: oid, T: time.Now(), Pos: geo.Pt(101, 100), SensAcc: 5})

		if n, violations := s.CoveringEntriesForTest(); n != 1 || len(violations) > 0 {
			t.Fatalf("%s: %d annotated entries, violations %v", name, n, violations)
		}
		got := s.localRangeResult(core.AreaFromRect(geo.R(0, 0, 200, 200)), 100, 0.5, geo.R(-100, -100, 300, 300))
		if len(got) != 1 || got[0].LD.Acc != 40 || got[0].LD.Pos != geo.Pt(101, 100) {
			t.Fatalf("%s: range result %+v, want the object at (101, 100), accuracy 40", name, got)
		}
	}
}

// TestDiagExportsRangeOutcomeCounters: the leaf tallies what its range
// evaluation did with the candidates, and the diagnostics reply's metrics
// snapshot (what lsctl stats prints) carries the tallies.
func TestDiagExportsRangeOutcomeCounters(t *testing.T) {
	s := newScanLeaf(t, Options{})
	// A 100 m query square: one object well inside, one across an edge,
	// one across a corner, one beyond reach, and a sighting with no
	// registration (a position recovered without its registration log).
	install(t, s, 0, geo.Pt(150, 150), 10)
	install(t, s, 1, geo.Pt(195, 150), 10)
	install(t, s, 2, geo.Pt(203, 203), 10)
	install(t, s, 3, geo.Pt(240, 150), 10)
	s.sightings.Put(core.Sighting{OID: "plain", T: time.Now(), Pos: geo.Pt(120, 120), SensAcc: 5})

	area := core.AreaFromRect(geo.R(100, 100, 200, 200))
	got := s.localRangeResult(area, 50, 0.5, area.Bounds().Enlarge(50))
	if len(got) != 2 {
		t.Fatalf("range result %+v, want the two registered objects mostly inside", got)
	}
	res, err := s.handleDiag()
	if err != nil {
		t.Fatal(err)
	}
	snapshot := res.(msg.DiagRes).Metrics
	for _, line := range []string{
		"range_candidates = 5",
		"range_qualified = 2",
		"range_exact_overlap = 1",
	} {
		if !strings.Contains(snapshot, line+"\n") {
			t.Errorf("metrics snapshot lacks %q:\n%s", line, snapshot)
		}
	}
}
