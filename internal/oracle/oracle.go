// Package oracle checks query answers against ground truth; it is the one
// place a test compares what a client got with what the service was told.
// An answer goes to CheckPos, CheckRange or CheckNN, and an error names the
// object the answer got wrong.
//
// The truth is a history per object. Acked (or Track) records a state the
// service acknowledged. Sent records an operation whose outcome is unknown
// (in flight, or failed without an answer) and Lost a position the service
// may have forgotten (a leaf restarted without a sighting log): until the
// object's next acknowledgement, an answer may show any of those states.
// Checks read the truth when they run — history checking per object, in
// the sense of Herlihy and Wing's linearizability.
//
// The rules are the service's own (core.Area.RangeQualifies and
// core.SelectNearest's order) plus "Partial is honest": an answer not
// flagged Partial is complete, and whatever a Partial one lacks lies in the
// area of a server its Unreachable list names. Server areas come from the
// deployment's store.ConfigRecords. The benchmark's answer checks
// (bench/rig) are a copy of these rules.
package oracle

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
	"locsvc/internal/store"
)

// decisionTol is how close an overlap degree may sit to reqOverlap before
// either decision is right: the service evaluates a prepared form of the
// predicate whose rounding may differ from RangeQualifies' by that much.
const decisionTol = 1e-9

// state is one state an object may be in: tracked at ld, or not tracked.
type state struct {
	tracked bool
	ld      core.LocationDescriptor
}

func (s state) String() string {
	if !s.tracked {
		return "untracked"
	}
	return fmt.Sprintf("%v±%.1f", s.ld.Pos, s.ld.Acc)
}

// Checked counts the answers an Oracle has checked, by kind.
type Checked struct{ Pos, Range, NN int }

// Oracle is the ground truth of one deployment; it is safe for concurrent
// use.
type Oracle struct {
	areas   map[msg.NodeID]core.Area
	mu      sync.Mutex
	objs    map[core.OID][]state
	checked Checked
}

// New returns an empty truth for a deployment of the given servers.
func New(servers []store.ConfigRecord) *Oracle {
	o := &Oracle{areas: make(map[msg.NodeID]core.Area), objs: make(map[core.OID][]state)}
	for _, cfg := range servers {
		o.areas[msg.NodeID(cfg.ID)] = cfg.SA
	}
	return o
}

// Acked records that the service acknowledged ld as oid's state.
func (o *Oracle) Acked(oid core.OID, ld core.LocationDescriptor) {
	o.set(oid, state{true, ld}, false)
}

// Track records obj's acknowledged state: the sighting the service last
// accepted, at the accuracy it offers.
func (o *Oracle) Track(obj *client.TrackedObject) {
	o.Acked(obj.OID(), core.LocationDescriptor{Pos: obj.LastSent().Pos, Acc: obj.OfferedAcc()})
}

// Sent records an operation that may or may not take oid to ld; an object
// first seen here may also be untracked.
func (o *Oracle) Sent(oid core.OID, ld core.LocationDescriptor) { o.set(oid, state{true, ld}, true) }

// Lost records that the service may have forgotten oid's position.
func (o *Oracle) Lost(oid core.OID) { o.set(oid, state{}, true) }

func (o *Oracle) set(oid core.OID, s state, maybe bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !maybe {
		o.objs[oid] = []state{s}
		return
	}
	if _, ok := o.objs[oid]; !ok {
		o.objs[oid] = []state{{}}
	}
	o.objs[oid] = append(o.objs[oid], s)
}

// Checked reports how many answers have been checked.
func (o *Oracle) Checked() Checked {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.checked
}

// CheckPos checks a position query's answer: a found descriptor must carry
// a position the object may hold, and core.ErrNotFound is wrong for an
// object surely tracked. Any other error is no answer and passes.
func (o *Oracle) CheckPos(oid core.OID, ld core.LocationDescriptor, err error) error {
	if err != nil && !errors.Is(err, core.ErrNotFound) {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.checked.Pos++
	states := o.objs[oid]
	if err != nil {
		if surely(states, func(s state) bool { return s.tracked }) {
			return fmt.Errorf("position query: %s reported not tracked, truth has %v", oid, states)
		}
		return nil
	}
	for _, s := range states {
		if s.tracked && s.ld.Pos == ld.Pos {
			return nil
		}
	}
	return fmt.Errorf("position query: %s reported at %v, truth has %v", oid, ld.Pos, states)
}

// CheckRange checks a range query's answer.
func (o *Oracle) CheckRange(area core.Area, reqAcc, reqOverlap float64, res client.RangeResult) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.checked.Range++
	at := area.Bounds()
	dark, err := o.unreachable(res.Partial, res.Unreachable)
	if err != nil {
		return fmt.Errorf("range query %v: %w", at, err)
	}
	// An accurate enough object whose overlap degree sits within
	// decisionTol of reqOverlap may be reported or not.
	borderline := func(s state) bool {
		return s.ld.Acc <= reqAcc && math.Abs(area.Overlap(s.ld)-reqOverlap) <= decisionTol
	}
	reported := make(map[core.OID]bool, len(res.Objs))
	for _, e := range res.Objs {
		s, ok := o.match(e)
		switch {
		case reported[e.OID]:
			return fmt.Errorf("range query %v: %s reported twice", at, e.OID)
		case !ok:
			return fmt.Errorf("range query %v: %s reported at %v±%.1f, truth has %v", at, e.OID, e.LD.Pos, e.LD.Acc, o.objs[e.OID])
		case !area.RangeQualifies(s.ld, reqAcc, reqOverlap) && !borderline(s):
			return fmt.Errorf("range query %v: %s at %v reported, but it does not qualify (reqAcc %v, reqOverlap %v)", at, e.OID, s, reqAcc, reqOverlap)
		}
		reported[e.OID] = true
	}
	mustQualify := func(s state) bool {
		return s.tracked && area.RangeQualifies(s.ld, reqAcc, reqOverlap) && !borderline(s)
	}
	for _, oid := range o.oids() {
		if states := o.objs[oid]; !reported[oid] && surely(states, mustQualify) && !inAny(states, dark) {
			return fmt.Errorf("range query %v: answer (partial %v, unreachable %v) misses %s at %v", at, res.Partial, res.Unreachable, oid, states)
		}
	}
	return nil
}

// CheckNN checks a nearest-neighbour query's answer, err included:
// core.ErrNotFound claims that nothing qualifies, and core.ErrUnavailable on
// a Partial result that nothing qualifies outside the servers it names. Any
// other error is no answer and passes.
func (o *Oracle) CheckNN(p geo.Point, reqAcc, nearQual float64, res client.NeighborResult, err error) error {
	if err != nil && !errors.Is(err, core.ErrNotFound) && !(errors.Is(err, core.ErrUnavailable) && res.Partial) {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.checked.NN++
	dark, derr := o.unreachable(res.Partial, res.Unreachable)
	if derr != nil {
		return fmt.Errorf("neighbour query at %v: %w", p, derr)
	}
	accurate := func(s state) bool { return s.tracked && s.ld.Acc <= reqAcc }
	// Without an answer every qualifying object is nearer than it.
	nearest, d := res.Nearest, math.Inf(1)
	if err == nil {
		if s, ok := o.match(nearest); !ok || !accurate(s) {
			return fmt.Errorf("neighbour query at %v: nearest %s at %v±%.1f, truth has %v (reqAcc %v)", p, nearest.OID, nearest.LD.Pos, nearest.LD.Acc, o.objs[nearest.OID], reqAcc)
		}
		d = nearest.LD.Pos.Dist(p)
		if want := math.Max(d-reqAcc, 0); res.GuaranteedMinDist != want {
			return fmt.Errorf("neighbour query at %v: guaranteed minimum distance %v to nearest %s, want %v", p, res.GuaranteedMinDist, nearest.OID, want)
		}
	}
	inNear := func(s state) bool { return accurate(s) && s.ld.Pos.Dist(p) <= d+nearQual }
	near := map[core.OID]bool{nearest.OID: true}
	for _, e := range res.Near {
		if s, ok := o.match(e); near[e.OID] || !ok || !inNear(s) {
			return fmt.Errorf("neighbour query at %v: near set holds %s at %v±%.1f, truth has %v, within %.2f m wanted", p, e.OID, e.LD.Pos, e.LD.Acc, o.objs[e.OID], d+nearQual)
		}
		near[e.OID] = true
	}
	for _, oid := range o.oids() {
		states := o.objs[oid]
		if oid == nearest.OID || inAny(states, dark) {
			continue
		}
		beats := func(s state) bool {
			dj := s.ld.Pos.Dist(p)
			return accurate(s) && (dj < d || dj == d && oid < nearest.OID)
		}
		if surely(states, beats) {
			return fmt.Errorf("neighbour query at %v: %s at %v is nearer than the answer %q (err %v)", p, oid, states, nearest.OID, err)
		}
		if !near[oid] && surely(states, inNear) {
			return fmt.Errorf("neighbour query at %v: near set misses %s at %v (nearest %s at %.2f m, nearQual %v)", p, oid, states, nearest.OID, d, nearQual)
		}
	}
	return nil
}

// match returns the state of e's object that e reports, if any.
func (o *Oracle) match(e core.Entry) (state, bool) {
	for _, s := range o.objs[e.OID] {
		if s.tracked && s.ld == e.LD {
			return s, true
		}
	}
	return state{}, false
}

// unreachable returns the areas of the servers an answer names. Naming an
// unknown server, or any server in an answer not flagged Partial, is an
// error.
func (o *Oracle) unreachable(partial bool, ids []msg.NodeID) ([]core.Area, error) {
	if len(ids) > 0 && !partial {
		return nil, fmt.Errorf("answer names unreachable servers %v but is not flagged partial", ids)
	}
	areas := make([]core.Area, len(ids))
	for i, id := range ids {
		a, ok := o.areas[id]
		if !ok {
			return nil, fmt.Errorf("answer names unknown server %s as unreachable", id)
		}
		areas[i] = a
	}
	return areas, nil
}

// oids returns the objects in id order, so that a check names the same
// object on every run.
func (o *Oracle) oids() []core.OID {
	ids := make([]core.OID, 0, len(o.objs))
	for oid := range o.objs {
		ids = append(ids, oid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// surely reports whether every state the object may be in satisfies f; an
// unknown object satisfies nothing.
func surely(states []state, f func(state) bool) bool {
	for _, s := range states {
		if !f(s) {
			return false
		}
	}
	return len(states) > 0
}

// inAny reports whether some tracked state lies in one of the areas.
func inAny(states []state, areas []core.Area) bool {
	for _, s := range states {
		for _, a := range areas {
			if s.tracked && a.Contains(s.ld.Pos) {
				return true
			}
		}
	}
	return false
}
