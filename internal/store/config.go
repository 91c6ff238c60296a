package store

import (
	"fmt"

	"locsvc/internal/core"
	"locsvc/internal/geo"
)

// ChildRecord describes one child of a non-leaf server: its identifier and
// the service area it is responsible for (the paper's child record with
// fields id and sa).
type ChildRecord struct {
	ID string    `json:"id"`
	SA core.Area `json:"sa"`
}

// ConfigRecord is a server's persistent configuration record c (paper
// Section 5): its own service area, its one parent and its children. For
// the root server Parent is empty; for leaf servers Children is empty.
type ConfigRecord struct {
	// ID is the server's node identifier.
	ID string `json:"id"`
	// SA is the service area associated with the server.
	SA core.Area `json:"sa"`
	// Parent identifies the parent server; empty for the root (the
	// paper's ε).
	Parent string `json:"parent,omitempty"`
	// Children holds one record per child server, empty for leaves.
	Children []ChildRecord `json:"children,omitempty"`
}

// IsRoot reports whether the record describes the root server.
func (c ConfigRecord) IsRoot() bool { return c.Parent == "" }

// IsLeaf reports whether the record describes a leaf server.
func (c ConfigRecord) IsLeaf() bool { return len(c.Children) == 0 }

// ChildFor returns the child whose service area contains p, implementing
// the "select child ∈ c.children with pos ∈ child.c.sa" step used by
// registration, handover and query forwarding (Algorithms 6-1 and 6-3).
// Because sibling areas do not overlap, at most one child matches; boundary
// points are assigned to the first child whose closed area contains them.
func (c ConfigRecord) ChildFor(p geo.Point) (ChildRecord, bool) {
	// First pass: half-open rectangle containment for exact, exclusive
	// assignment on the rectangular partitions deployments use.
	for _, ch := range c.Children {
		if ch.SA.Bounds().Contains(p) && ch.SA.Contains(p) {
			return ch, true
		}
	}
	// Second pass: closed containment, so points on the outer boundary
	// of the parent area still find a child.
	for _, ch := range c.Children {
		if ch.SA.Contains(p) {
			return ch, true
		}
	}
	return ChildRecord{}, false
}

// Validate checks the structural invariants of Section 4: a non-leaf
// server's children must tile its service area (union equals the parent
// area, no overlaps). Tiling is verified by area accounting, which is exact
// for the rectangular partitions the hierarchy builder produces and a close
// approximation for general convex polygons.
func (c ConfigRecord) Validate() error {
	if c.ID == "" {
		return fmt.Errorf("store: config record without id")
	}
	if c.SA.Empty() {
		return fmt.Errorf("store: server %s has empty service area", c.ID)
	}
	if c.IsLeaf() {
		return nil
	}
	var sum float64
	for i, ch := range c.Children {
		if ch.ID == "" {
			return fmt.Errorf("store: server %s child %d without id", c.ID, i)
		}
		if ch.SA.Empty() {
			return fmt.Errorf("store: child %s has empty service area", ch.ID)
		}
		sum += ch.SA.Size()
		for _, other := range c.Children[:i] {
			// Sharing a boundary is no overlap; the clip against the
			// other's bounds is exact for the rectangle areas used in
			// deployments.
			inter := ch.SA.Vertices.IntersectRectArea(other.SA.Bounds())
			if inter > 1e-6*ch.SA.Size() && inter > 1e-9 {
				return fmt.Errorf("store: children %s and %s of %s overlap", ch.ID, other.ID, c.ID)
			}
		}
	}
	parent := c.SA.Size()
	if diff := sum - parent; diff > 1e-6*parent || diff < -1e-6*parent {
		return fmt.Errorf("store: children of %s cover %.3f of parent area %.3f", c.ID, sum, parent)
	}
	return nil
}
