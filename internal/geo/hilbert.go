package geo

// hilbertOrder is the number of bits per axis of HilbertKey's grid: 2^16
// cells a side, so a key fits 32 bits.
const hilbertOrder = 16

// HilbertKey returns the index of p along a Hilbert curve laid over bounds
// on a 65536 × 65536 grid. Points close along the curve are close in the
// plane, so cutting a key-sorted point list into fixed-size pieces yields
// compact, barely overlapping groups — the property the tiered store's run
// files use to pack positions into spatial leaves. Points outside bounds are
// clamped onto its edge; a degenerate bounds maps every point to key 0 on
// the collapsed axis.
func HilbertKey(bounds Rect, p Point) uint32 {
	x := gridCell(p.X, bounds.Min.X, bounds.Max.X)
	y := gridCell(p.Y, bounds.Min.Y, bounds.Max.Y)
	const n = uint32(1) << hilbertOrder
	var d uint32
	for s := n / 2; s > 0; s /= 2 {
		var rx, ry uint32
		if x&s != 0 {
			rx = 1
		}
		if y&s != 0 {
			ry = 1
		}
		d += s * s * ((3 * rx) ^ ry)
		// Rotate the quadrant so the sub-curve enters and leaves where the
		// parent curve expects it.
		if ry == 0 {
			if rx == 1 {
				x, y = n-1-x, n-1-y
			}
			x, y = y, x
		}
	}
	return d
}

// gridCell maps v in [lo, hi] onto a cell index in [0, 2^hilbertOrder).
func gridCell(v, lo, hi float64) uint32 {
	const cells = 1 << hilbertOrder
	if !(hi > lo) || !(v > lo) { // also catches NaN
		return 0
	}
	c := (v - lo) / (hi - lo) * cells
	if c >= cells {
		return cells - 1
	}
	return uint32(c)
}
