package spatial

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"locsvc/internal/geo"
)

// TestRectIndexOracle drives random insert/replace/remove/stab traffic
// against a linear-scan oracle: every stab must return exactly the
// rectangles containing the point, regardless of where they sit relative
// to the world rectangle and its quadrant boundaries.
func TestRectIndexOracle(t *testing.T) {
	const side = 1000.0
	world := geo.R(0, 0, side, side)
	rng := rand.New(rand.NewSource(7))

	ix := NewRectIndex(world)
	oracle := make(map[string]geo.Rect)

	randRect := func() geo.Rect {
		// Mix generic rectangles with degenerate and boundary-hugging
		// ones: points on quadrant split lines, rects crossing the world
		// edge, zero-area rects.
		switch rng.Intn(4) {
		case 0: // generic
			x, y := rng.Float64()*side, rng.Float64()*side
			return geo.R(x, y, x+rng.Float64()*200, y+rng.Float64()*200)
		case 1: // snapped to power-of-two split lines
			x := float64(rng.Intn(8)) * side / 8
			y := float64(rng.Intn(8)) * side / 8
			return geo.R(x, y, x+side/8, y+side/8)
		case 2: // sticking out of the world
			x, y := rng.Float64()*side, rng.Float64()*side
			return geo.R(x-300, y, x+300, y+100)
		default: // degenerate
			x, y := rng.Float64()*side, rng.Float64()*side
			return geo.R(x, y, x, y)
		}
	}

	stabAll := func(p geo.Point) []string {
		var got []string
		ix.Stab(p, func(id string, _ geo.Rect) bool {
			got = append(got, id)
			return true
		})
		sort.Strings(got)
		return got
	}

	for step := 0; step < 20_000; step++ {
		id := fmt.Sprintf("r%d", rng.Intn(400))
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			r := randRect()
			ix.Insert(id, r)
			oracle[id] = r
		case 4:
			removed := ix.Remove(id)
			if _, ok := oracle[id]; ok != removed {
				t.Fatalf("step %d: Remove(%s) = %v, oracle has it: %v", step, id, removed, ok)
			}
			delete(oracle, id)
		default:
			p := geo.Pt(rng.Float64()*side*1.2-side*0.1, rng.Float64()*side*1.2-side*0.1)
			if rng.Intn(3) == 0 {
				// Points exactly on split lines exercise the
				// multi-quadrant descent.
				p = geo.Pt(float64(rng.Intn(9))*side/8, float64(rng.Intn(9))*side/8)
			}
			var want []string
			for oid, r := range oracle {
				if r.ContainsClosed(p) {
					want = append(want, oid)
				}
			}
			sort.Strings(want)
			got := stabAll(p)
			if len(got) != len(want) {
				t.Fatalf("step %d: Stab(%v) = %v, want %v", step, p, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d: Stab(%v) = %v, want %v", step, p, got, want)
				}
			}
		}
		if ix.Len() != len(oracle) {
			t.Fatalf("step %d: Len() = %d, oracle %d", step, ix.Len(), len(oracle))
		}
	}
}

// TestRectIndexStabStops verifies early termination from the visitor.
func TestRectIndexStabStops(t *testing.T) {
	ix := NewRectIndex(geo.R(0, 0, 100, 100))
	for i := 0; i < 10; i++ {
		ix.Insert(fmt.Sprintf("x%d", i), geo.R(0, 0, 100, 100))
	}
	n := 0
	ix.Stab(geo.Pt(50, 50), func(string, geo.Rect) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("visited %d entries after stop at 3", n)
	}
}

// TestRectIndexReplace pins replace semantics: re-inserting an id moves its
// rectangle.
func TestRectIndexReplace(t *testing.T) {
	ix := NewRectIndex(geo.R(0, 0, 100, 100))
	ix.Insert("a", geo.R(0, 0, 10, 10))
	ix.Insert("a", geo.R(90, 90, 100, 100))
	if ix.Len() != 1 {
		t.Fatalf("Len() = %d after replace", ix.Len())
	}
	hit := false
	ix.Stab(geo.Pt(5, 5), func(string, geo.Rect) bool { hit = true; return true })
	if hit {
		t.Fatal("old rectangle still matched after replace")
	}
	ix.Stab(geo.Pt(95, 95), func(string, geo.Rect) bool { hit = true; return true })
	if !hit {
		t.Fatal("new rectangle not matched after replace")
	}
}

// TestRectIndexSwapDelete pins Remove's swap-delete inside one node:
// whichever entry goes, the others stay found and a re-inserted id is
// indexed once.
func TestRectIndexSwapDelete(t *testing.T) {
	// Four rectangles straddling the world's centre all sit at the root.
	ids := []string{"a", "b", "c", "d"}
	r := geo.R(40, 40, 60, 60)
	for _, tc := range []struct {
		name   string
		remove string
	}{
		{"first", "a"},
		{"middle", "c"},
		{"last", "d"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix := NewRectIndex(geo.R(0, 0, 100, 100))
			for _, id := range ids {
				ix.Insert(id, r)
			}
			if !ix.Remove(tc.remove) {
				t.Fatalf("Remove(%s) = false", tc.remove)
			}
			if ix.Remove(tc.remove) {
				t.Fatalf("second Remove(%s) = true", tc.remove)
			}
			var want []string
			for _, id := range ids {
				if id != tc.remove {
					want = append(want, id)
				}
			}
			checkStab(t, ix, geo.Pt(50, 50), want)
			// Every survivor can still be removed: its slot moved with it.
			for _, id := range want {
				if !ix.Remove(id) {
					t.Fatalf("Remove(%s) = false after %s left", id, tc.remove)
				}
			}
			checkStab(t, ix, geo.Pt(50, 50), nil)
		})
	}
	t.Run("reinsert present", func(t *testing.T) {
		ix := NewRectIndex(geo.R(0, 0, 100, 100))
		for _, id := range ids {
			ix.Insert(id, r)
		}
		// "b" moves to another node; "a" stays in its own.
		ix.Insert("b", geo.R(10, 10, 20, 20))
		ix.Insert("a", geo.R(45, 45, 55, 55))
		if ix.Len() != len(ids) {
			t.Fatalf("Len() = %d, want %d", ix.Len(), len(ids))
		}
		checkStab(t, ix, geo.Pt(50, 50), []string{"a", "c", "d"})
		checkStab(t, ix, geo.Pt(15, 15), []string{"b"})
		checkStab(t, ix, geo.Pt(42, 42), []string{"c", "d"})
	})
}

func checkStab(t *testing.T, ix *RectIndex, p geo.Point, want []string) {
	t.Helper()
	var got []string
	ix.Stab(p, func(id string, _ geo.Rect) bool {
		got = append(got, id)
		return true
	})
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Stab(%v) = %v, want %v", p, got, want)
	}
}

// tripwireIndex is the event index of a leaf in the benchmark's udp_events
// workload: 50 m cells on an 80 m pitch over a 2 000 m world.
func tripwireIndex() (*RectIndex, geo.Rect) {
	const side, pitch, cell = 2000.0, 80.0, 50.0
	world := geo.R(0, 0, side, side)
	ix := NewRectIndex(world)
	for x := 0.0; x+cell <= side; x += pitch {
		for y := 0.0; y+cell <= side; y += pitch {
			ix.Insert(fmt.Sprintf("t%.0f-%.0f", x, y), geo.R(x, y, x+cell, y+cell))
		}
	}
	return ix, world
}

// TestRectIndexStabAllocs: a stab allocates nothing; the event dispatcher
// runs two per sighting delta.
func TestRectIndexStabAllocs(t *testing.T) {
	ix, _ := tripwireIndex()
	rng := rand.New(rand.NewSource(1))
	hits := 0
	visit := func(string, geo.Rect) bool { hits++; return true }
	if a := testing.AllocsPerRun(1000, func() {
		ix.Stab(geo.Pt(rng.Float64()*2000, rng.Float64()*2000), visit)
	}); a != 0 {
		t.Errorf("Stab allocates %.1f times per call, want 0", a)
	}
	if hits == 0 {
		t.Error("no stab hit a tripwire")
	}
}

// BenchmarkRectIndexStab stabs the tripwire index at random points.
func BenchmarkRectIndexStab(b *testing.B) {
	ix, world := tripwireIndex()
	rng := rand.New(rand.NewSource(1))
	pts := make([]geo.Point, 4096)
	for i := range pts {
		pts[i] = geo.Pt(world.Min.X+rng.Float64()*world.Width(), world.Min.Y+rng.Float64()*world.Height())
	}
	hits := 0
	visit := func(string, geo.Rect) bool { hits++; return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Stab(pts[i%len(pts)], visit)
	}
	if hits == 0 {
		b.Fatal("no stab hit a tripwire")
	}
}
