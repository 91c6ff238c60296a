// Package core defines the location-service model of the paper (Section 3):
// tracked objects, sighting records, location descriptors with worst-case
// accuracy, and the pure query semantics — overlap degrees for range queries
// and the nearest-neighbor selection rule. Everything here is independent of
// servers and transports so the semantics can be tested and reused in
// isolation (the distributed algorithms in internal/server are built on it).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"locsvc/internal/geo"
)

// OID identifies a tracked object, unique within the location service's
// namespace (the paper's s.oId ∈ OId).
type OID string

// Sighting is a sighting record s ∈ S (Section 3.1): one position report
// for a tracked object, stamped with the sensor accuracy at measurement
// time.
type Sighting struct {
	OID OID
	// T is the timestamp of the sighting. The paper assumes synchronized
	// clocks (e.g., GPS time).
	T time.Time
	// Pos is the object's position at time T in the service plane.
	Pos geo.Point
	// SensAcc is the sensor accuracy: the maximum distance between Pos
	// and the object's actual position at time T.
	SensAcc float64
}

// Validate reports whether the sighting is well formed: an object id, a
// finite position, a finite non-negative sensor accuracy and a timestamp
// InNanoRange.
func (s Sighting) Validate() error {
	if s.OID == "" {
		return errors.New("core: sighting has empty object id")
	}
	if !finite(s.Pos.X) || !finite(s.Pos.Y) {
		return fmt.Errorf("core: non-finite position %v", s.Pos)
	}
	if !finite(s.SensAcc) || s.SensAcc < 0 {
		return fmt.Errorf("core: sensor accuracy %v is not a finite non-negative number", s.SensAcc)
	}
	if !InNanoRange(s.T) {
		return fmt.Errorf("core: timestamp %v outside the range of UnixNano", s.T)
	}
	return nil
}

// InNanoRange reports whether t is the zero Time or an instant stores can
// keep as UnixNano nanoseconds (years 1678–2262), less the lowest, which
// they use to mark a zero time.
func InNanoRange(t time.Time) bool {
	return t.IsZero() || t.After(time.Unix(0, math.MinInt64)) && !t.After(time.Unix(0, math.MaxInt64))
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// LocationDescriptor is ld(o): the position stored for an object together
// with its worst-case accuracy. The object is guaranteed to reside within
// the circular location area of radius Acc around Pos (Fig. 2):
//
//	DISTANCE(ld(o).pos, rp(o)) ≤ ld(o).acc
type LocationDescriptor struct {
	Pos geo.Point
	// Acc is the worst-case deviation of Pos from the real position, in
	// meters. Smaller values mean higher accuracy.
	Acc float64
}

// Area returns the circular location area defined by the descriptor.
func (ld LocationDescriptor) Area() geo.Circle { return geo.Circle{C: ld.Pos, R: ld.Acc} }

// Aged returns the descriptor's accuracy bound at time now, given the
// object's maximum speed: acc(t) = acc + vmax·(t − t0). This is the aging
// estimation of [15] used for cached position descriptors (Section 6.5) and
// for deciding whether cached information is still accurate enough.
func (ld LocationDescriptor) Aged(since, now time.Time, maxSpeed float64) LocationDescriptor {
	if !now.After(since) || maxSpeed <= 0 {
		return ld
	}
	aged := ld
	aged.Acc += maxSpeed * now.Sub(since).Seconds()
	return aged
}

// RegInfo is the registration information record kept for a visitor at its
// agent (the v.regInfo component of Section 5).
type RegInfo struct {
	// Registrant identifies the registering instance (a transport node
	// id) that receives accuracy-change notifications.
	Registrant string
	// DesAcc is the desired accuracy requested at registration.
	DesAcc float64
	// MinAcc is the worst accuracy the registrant will accept.
	MinAcc float64
	// MaxSpeed is the declared maximum speed of the object in m/s, used
	// for accuracy aging. Zero disables aging.
	MaxSpeed float64
}

// Validate reports whether the requested accuracy range is well formed
// (finite, and the desired accuracy at least as good — i.e. as small — as
// the minimum acceptable accuracy) and the speed finite.
func (ri RegInfo) Validate() error {
	if !finite(ri.DesAcc) || !finite(ri.MinAcc) || !finite(ri.MaxSpeed) {
		return errors.New("core: non-finite accuracy bound or speed")
	}
	if ri.DesAcc < 0 || ri.MinAcc < 0 {
		return errors.New("core: negative accuracy bound")
	}
	if ri.DesAcc > ri.MinAcc {
		return fmt.Errorf("core: desired accuracy %v worse than minimum %v", ri.DesAcc, ri.MinAcc)
	}
	return nil
}

// OfferedAcc computes the accuracy a leaf server with achievable accuracy
// achievable offers for this registration: max(achievable, desAcc)
// (Algorithm 6-1, line 8). The second return value reports whether the
// registration succeeds, i.e. achievable ≤ minAcc (line 4).
func (ri RegInfo) OfferedAcc(achievable float64) (float64, bool) {
	if achievable > ri.MinAcc {
		return achievable, false
	}
	if achievable < ri.DesAcc {
		return ri.DesAcc, true
	}
	return achievable, true
}

// Entry is one (object id, location descriptor) pair as returned by range
// and nearest-neighbor queries.
type Entry struct {
	OID OID
	LD  LocationDescriptor
}

// Errors returned by the service model and the servers built on it.
var (
	// ErrNotFound indicates the queried object is not tracked by the LS.
	ErrNotFound = errors.New("core: object not tracked")
	// ErrAccuracy indicates the LS cannot offer an accuracy within the
	// requested [desAcc, minAcc] range (registerFailed).
	ErrAccuracy = errors.New("core: requested accuracy not available")
	// ErrOutOfArea indicates a position outside the root service area.
	ErrOutOfArea = errors.New("core: position outside service area")
	// ErrBadRequest indicates malformed query or registration parameters.
	ErrBadRequest = errors.New("core: bad request")
	// ErrTimeout indicates an operation expired before its reply arrived
	// (a swept in-flight call or a dropped datagram). It wraps
	// context.DeadlineExceeded so errors.Is treats a remotely-resolved
	// timeout frame and a locally-expired context identically.
	ErrTimeout = fmt.Errorf("core: operation timed out: %w", context.DeadlineExceeded)
	// ErrUnavailable indicates the responsible server (or a partition of
	// the hierarchy needed to answer) is currently unreachable: the query
	// was answered in degraded mode and came back without the data rather
	// than proving its absence. Callers should treat it as retryable.
	ErrUnavailable = errors.New("core: responsible server unavailable")
)
