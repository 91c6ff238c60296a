package store

import (
	"locsvc/internal/core"
	"locsvc/internal/geo"
)

// DeltaOp classifies one sighting-store change.
type DeltaOp uint8

// Supported delta operations.
const (
	// DeltaPut records an insert or position update; New is the committed
	// position, Old the superseded one when the record already existed.
	DeltaPut DeltaOp = iota + 1
	// DeltaRemove records a deletion; Old is the removed record's position
	// (New is unused).
	DeltaRemove
)

// Delta describes one committed change to the sighting store: which object,
// what happened, and where it was before and after. The event layer
// consumes deltas to match only the subscriptions whose regions the old or
// new position touch, instead of re-evaluating every subscription after
// every mutation.
//
// Deltas for the same object are emitted in commit order (the pipeline's
// per-object lane ordering guarantees it); a batch whose coalescing
// superseded intermediate updates emits one delta spanning the pre-batch
// position and the final one.
type Delta struct {
	Op  DeltaOp
	OID core.OID
	New geo.Point
	Old geo.Point
	// HasOld reports whether the object existed before the change (always
	// true for DeltaRemove).
	HasOld bool
}
