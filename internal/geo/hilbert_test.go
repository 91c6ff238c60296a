package geo

import (
	"math"
	"sort"
	"testing"
)

// TestHilbertKeyWalksAdjacentCells checks the two properties the run
// packer relies on: distinct cells get distinct keys, and visiting cells in
// key order never jumps — consecutive cells share an edge.
func TestHilbertKeyWalksAdjacentCells(t *testing.T) {
	const side = 64
	bounds := R(0, 0, side, side)
	type cell struct {
		p   Point
		key uint32
	}
	var cells []cell
	seen := make(map[uint32]bool)
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			p := Pt(float64(i)+0.5, float64(j)+0.5)
			k := HilbertKey(bounds, p)
			if seen[k] {
				t.Fatalf("key %d assigned twice (at %v)", k, p)
			}
			seen[k] = true
			cells = append(cells, cell{p, k})
		}
	}
	sort.Slice(cells, func(a, b int) bool { return cells[a].key < cells[b].key })
	for i := 1; i < len(cells); i++ {
		a, b := cells[i-1].p, cells[i].p
		if d := math.Abs(a.X-b.X) + math.Abs(a.Y-b.Y); d != 1 {
			t.Fatalf("curve jumps from %v to %v (step %d)", a, b, i)
		}
	}
}

func TestHilbertKeyClampsAndDegenerates(t *testing.T) {
	bounds := R(10, 10, 20, 20)
	if got, want := HilbertKey(bounds, Pt(-5, -5)), HilbertKey(bounds, Pt(10, 10)); got != want {
		t.Fatalf("point below bounds keyed %d, corner %d", got, want)
	}
	if got, want := HilbertKey(bounds, Pt(99, 99)), HilbertKey(bounds, Pt(20, 20)); got != want {
		t.Fatalf("point above bounds keyed %d, corner %d", got, want)
	}
	// A zero-area bounds (a run holding one position) must not divide by
	// zero or produce NaN-driven garbage.
	point := Rect{Min: Pt(3, 3), Max: Pt(3, 3)}
	if k := HilbertKey(point, Pt(3, 3)); k != 0 {
		t.Fatalf("degenerate bounds keyed %d, want 0", k)
	}
	if k := HilbertKey(bounds, Pt(math.NaN(), 15)); k != HilbertKey(bounds, Pt(10, 15)) {
		t.Fatalf("NaN coordinate not clamped to the low edge: %d", k)
	}
}
