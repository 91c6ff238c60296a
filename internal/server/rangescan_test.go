package server

import (
	"fmt"
	"math"
	"math/rand"
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
		var res []core.Entry
		allocs := testing.AllocsPerRun(50, func() {
			res = s.localRangeResult(area, 50, 0.5)
		})
		if len(res) != 1000 {
			t.Fatalf("shards=%d: %d results, want 1000", shards, len(res))
		}
		if allocs > 2 {
			t.Errorf("shards=%d: %.1f allocations per 1000-result local range query, want <= 2", shards, allocs)
		}
	}
}

// TestRangeScanMatchesPerItemEvaluation: the bucket-at-a-time scan, with
// its whole-bucket shortcut, answers exactly what the range predicate
// applied to every object in turn answers, and counts the same
// candidates, qualified objects and exact overlaps, at one and four
// shards, all-RAM and tiered (runs shadowed by newer memtable positions).
// Objects lie at random and on a 25 m grid the query edges follow, with
// accuracies of 0, within and above reqAcc, and without a registration.
func TestRangeScanMatchesPerItemEvaluation(t *testing.T) {
	type object struct {
		pos geo.Point
		acc float64
	}
	for _, tiered := range []bool{false, true} {
		for _, shards := range []int{1, 4} {
			name := fmt.Sprintf("shards=%d tiered=%v", shards, tiered)
			opts := Options{Shards: shards}
			if tiered {
				wal, err := store.OpenShardedWAL(t.TempDir(), shards)
				if err != nil {
					t.Fatal(err)
				}
				opts.SightingWAL, opts.Tiering = wal, &store.TierConfig{MemtableBytes: 1}
			}
			s := newScanLeaf(t, opts)
			rng := rand.New(rand.NewSource(int64(7 + shards)))
			place := func() geo.Point {
				if rng.Intn(3) == 0 {
					return geo.Pt(float64(rng.Intn(80))*25, float64(rng.Intn(80))*25)
				}
				return geo.Pt(rng.Float64()*2000, rng.Float64()*2000)
			}
			truth := map[core.OID]object{}
			for i := 0; i < 3000; i++ {
				p := place()
				if i%10 == 0 {
					oid := core.OID(fmt.Sprintf("plain%04d", i))
					s.sightings.Put(core.Sighting{OID: oid, T: time.Now(), Pos: p, SensAcc: 5})
					truth[oid] = object{p, store.AccUnknown}
					continue
				}
				acc := []float64{0, 50, 80, rng.Float64() * 50}[rng.Intn(4)]
				truth[install(t, s, i, p, acc)] = object{p, acc}
			}
			if tiered {
				if err := s.sightings.MaintainTiers(); err != nil {
					t.Fatal(err)
				}
				// A quarter moves: its memtable position shadows the runs'.
				for oid, o := range truth {
					if rng.Intn(4) == 0 {
						o.pos = place()
						s.sightings.Put(core.Sighting{OID: oid, T: time.Now(), Pos: o.pos, SensAcc: 5})
						truth[oid] = o
					}
				}
				if st := s.sightings.TierStats(); st.DiskLive == 0 || st.MemtableBytes == 0 {
					t.Fatalf("%s: %d sightings in runs, %d memtable bytes: want both tiers in use", name, st.DiskLive, st.MemtableBytes)
				}
			}

			var areas []core.Area
			for _, side := range []float64{100, 300, 1000} {
				x, y := float64(rng.Intn(40))*25, float64(rng.Intn(40))*25
				areas = append(areas, core.AreaFromRect(geo.R(x, y, x+side, y+side)))
				h := side / math.Sqrt2
				areas = append(areas, core.AreaFromPoints([]geo.Point{geo.Pt(x+h, y), geo.Pt(x+2*h, y+h), geo.Pt(x+h, y+2*h), geo.Pt(x, y+h)}))
				areas = append(areas, core.AreaFromPoints([]geo.Point{geo.Pt(x, y), geo.Pt(x+side, y), geo.Pt(x+side/3, y+side)}))
			}
			m := &s.rangeMet
			interior := m.interior.Load()
			for _, area := range areas {
				for _, reqAcc := range []float64{0, 50} {
					for _, reqOverlap := range []float64{0.3, 0.5, 0.75} {
						var pred core.RangePredicate
						pred.Prepare(area, reqAcc, reqOverlap)
						want := map[core.OID]core.LocationDescriptor{}
						var cands, qualified, exact int64
						for oid, o := range truth {
							if !pred.Bounds().ContainsClosed(o.pos) {
								continue
							}
							cands++
							if o.acc == store.AccUnknown {
								continue
							}
							ld := core.LocationDescriptor{Pos: o.pos, Acc: o.acc}
							ok, ex := pred.Qualifies(ld)
							if ex {
								exact++
							}
							if ok {
								qualified++
								want[oid] = ld
							}
						}
						c0, q0, e0 := m.candidates.Value(), m.qualified.Value(), m.exact.Value()
						got := s.localRangeResult(area, reqAcc, reqOverlap)
						what := fmt.Sprintf("%s area %v reqAcc %v reqOverlap %v", name, area.Vertices, reqAcc, reqOverlap)
						if len(got) != len(want) {
							t.Fatalf("%s: %d results, per-item evaluation %d", what, len(got), len(want))
						}
						for _, e := range got {
							if ld, ok := want[e.OID]; !ok || ld != e.LD {
								t.Fatalf("%s: result %+v, per-item evaluation %+v (%v)", what, e, ld, ok)
							}
						}
						if dc, dq, de := m.candidates.Value()-c0, m.qualified.Value()-q0, m.exact.Value()-e0; dc != cands || dq != qualified || de != exact {
							t.Fatalf("%s: counted %d candidates, %d qualified, %d exact; per-item evaluation %d, %d, %d", what, dc, dq, de, cands, qualified, exact)
						}
					}
				}
			}
			if m.interior.Load() == interior {
				t.Fatalf("%s: no bucket qualified whole", name)
			}
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
		got := s.localRangeResult(core.AreaFromRect(geo.R(0, 0, 200, 200)), 100, 0.5)
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
	// one inside a corner whose circle reaches mostly outside (the exact
	// arithmetic decides it), one centred outside across a corner and one
	// beyond reach (a majority-overlap query does not search outside the
	// square, so neither is a candidate), and a sighting with no
	// registration (a position recovered without its registration log).
	install(t, s, 0, geo.Pt(150, 150), 10)
	install(t, s, 1, geo.Pt(195, 150), 10)
	install(t, s, 2, geo.Pt(203, 203), 10)
	install(t, s, 3, geo.Pt(240, 150), 10)
	install(t, s, 4, geo.Pt(198, 198), 10)
	s.sightings.Put(core.Sighting{OID: "plain", T: time.Now(), Pos: geo.Pt(120, 120), SensAcc: 5})

	area := core.AreaFromRect(geo.R(100, 100, 200, 200))
	got := s.localRangeResult(area, 50, 0.5)
	if len(got) != 2 {
		t.Fatalf("range result %+v, want the two registered objects mostly inside", got)
	}
	res, err := s.handleDiag()
	if err != nil {
		t.Fatal(err)
	}
	snapshot := res.(msg.DiagRes).Metrics
	for _, line := range []string{
		"range_candidates = 4",
		"range_qualified = 2",
		"range_exact_overlap = 1",
	} {
		if !strings.Contains(snapshot, line+"\n") {
			t.Errorf("metrics snapshot lacks %q:\n%s", line, snapshot)
		}
	}
}

// BenchmarkLocalRangeScan is one leaf's own range evaluation — the index
// search over the predicate's filter rectangle and the exact filter — with
// the benchmark workloads' population of 40 000 objects on one 4 km leaf
// and their thresholds (reqAcc 50 m, majority overlap). Besides time and
// B/op it reports per query the candidates the search delivered, those of
// them qualified at bucket level (a bucket deep inside the area), the
// qualifying results and the run leaves read: memtable squares of 100 m
// and 1 km and a 1 km square turned by 45° on an all-RAM leaf, and 200 m
// squares on a tiered leaf whose sightings MaintainTiers has flushed to
// runs.
func BenchmarkLocalRangeScan(b *testing.B) {
	const (
		objects = 40_000
		reqAcc  = 50
	)
	populate := func(b *testing.B, opts Options) *Server {
		s := newScanLeaf(b, opts)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < objects; i++ {
			install(b, s, i, geo.Pt(rng.Float64()*4000, rng.Float64()*4000), 5+rng.Float64()*(reqAcc-5))
		}
		return s
	}
	square := func(x, y, side float64) core.Area { return core.AreaFromRect(geo.R(x, y, x+side, y+side)) }
	// diamond is a square of the given side turned by 45°, its bounding
	// box's corner at (x, y).
	diamond := func(x, y, side float64) core.Area {
		h := side / math.Sqrt2
		return core.AreaFromPoints([]geo.Point{geo.Pt(x+h, y), geo.Pt(x+2*h, y+h), geo.Pt(x+h, y+2*h), geo.Pt(x, y+h)})
	}
	scan := func(s *Server, shape func(x, y, side float64) core.Area, side float64) func(b *testing.B) {
		return func(b *testing.B) {
			extent := shape(0, 0, side).Bounds().Width()
			rng := rand.New(rand.NewSource(2))
			m := &s.rangeMet
			cands, interior, leaves := m.candidates.Value(), m.interior.Load(), s.sightings.TierStats().LeafReads
			results := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x, y := 100+rng.Float64()*(3800-extent), 100+rng.Float64()*(3800-extent)
				results += len(s.localRangeResult(shape(x, y, side), reqAcc, 0.5))
			}
			b.StopTimer()
			n := float64(b.N)
			b.ReportMetric(float64(m.candidates.Value()-cands)/n, "candidates/op")
			b.ReportMetric(float64(m.interior.Load()-interior)/n, "interior/op")
			b.ReportMetric(float64(results)/n, "results/op")
			b.ReportMetric(float64(s.sightings.TierStats().LeafReads-leaves)/n, "leaf_reads/op")
		}
	}

	mem := populate(b, Options{})
	b.Run("memtable/100m", scan(mem, square, 100))
	b.Run("memtable/1km", scan(mem, square, 1000))
	b.Run("memtable/1km-turned", scan(mem, diamond, 1000))

	wal, err := store.OpenShardedWAL(b.TempDir(), 2)
	if err != nil {
		b.Fatal(err)
	}
	// A budget the population exceeds once, but not twice: no put flushes
	// inline, and the one maintenance pass moves every sighting to a run.
	tiered := populate(b, Options{Shards: 2, SightingWAL: wal, Tiering: &store.TierConfig{MemtableBytes: 4 << 20}})
	if err := tiered.sightings.MaintainTiers(); err != nil {
		b.Fatal(err)
	}
	if st := tiered.sightings.TierStats(); st.DiskLive != objects {
		b.Fatalf("%d of %d sightings in runs after maintenance", st.DiskLive, objects)
	}
	b.Run("tiered/200m", scan(tiered, square, 200))
}
