package rig

import (
	"context"
	"errors"
	"fmt"
	"time"

	"locsvc/bench/gen"
	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
)

// Class is an op class as reported: an update that crosses a leaf boundary
// is its own class, and notifications are timed like ops.
type Class uint8

// Op classes.
const (
	ClassUpdate Class = iota
	ClassHandover
	ClassPosQ
	ClassRangeQ
	ClassNNQ
	ClassNotify
	NumClasses
)

// ClassNames are the metric-name prefixes of the classes.
var ClassNames = [NumClasses]string{"update", "handover", "posq", "rangeq", "nnq", "notify"}

func classOf(op *gen.Op) Class {
	switch op.Kind {
	case gen.PosQuery:
		return ClassPosQ
	case gen.RangeQuery:
		return ClassRangeQ
	case gen.NNQuery:
		return ClassNNQ
	}
	if op.Cross {
		return ClassHandover
	}
	return ClassUpdate
}

// checkEvery is how often a range or nearest-neighbour answer is compared
// with a brute-force scan of the ground truth.
const checkEvery = 500

// errWrong marks an answer that arrived but contradicts the ground truth.
var errWrong = errors.New("wrong answer")

// inflight is one issued op: wait resolves it (nil for ops that were
// issued synchronously) and check validates the answer.
type inflight struct {
	class Class
	due   time.Time
	late  time.Duration
	err   error
	wait  func() error
}

// issue sends op. Blocking connections complete it before returning;
// pipelined ones (cfg.Pipeline > 1) return updates and position queries
// unresolved.
func (cn *conn) issue(ctx context.Context, op *gen.Op, due time.Time) inflight {
	w := cn.w
	f := inflight{class: classOf(op), due: due}
	async := w.cfg.Pipeline > 1
	switch op.Kind {
	case gen.Update:
		cell := &w.truth[op.Obj]
		packed := pack(op.Pos)
		cell.pending.Store(packed)
		cell.started.Add(1)
		if op.Trip >= 0 {
			w.expectFlip(op.Trip, op.Fired, due)
		}
		acked := func(err error) error {
			if err == nil {
				cell.pos.Store(packed)
			}
			cell.pending.Store(0)
			cell.done.Add(1)
			return err
		}
		s := core.Sighting{OID: w.oids[op.Obj], T: time.Now(), Pos: op.Pos, SensAcc: gen.SensAcc}
		if !async {
			f.err = acked(w.objs[op.Obj].Update(ctx, s))
			break
		}
		u, err := w.objs[op.Obj].UpdateAsync(ctx, s)
		if err != nil {
			f.err = acked(err)
			break
		}
		f.wait = func() error { return acked(u.Wait(ctx)) }
	case gen.PosQuery:
		cn.c.SetEntry(w.leaves[op.Entry])
		obj := op.Obj
		var before cands
		before.add(&w.truth[obj])
		if !async {
			ld, err := cn.c.PosQueryBounded(ctx, w.oids[obj], w.cfg.PosAccBound)
			f.err = cn.checkPos(obj, ld, err, before)
			break
		}
		q, err := cn.c.PosQueryAsync(ctx, w.oids[obj], w.cfg.PosAccBound)
		if err != nil {
			f.err = err
			break
		}
		f.wait = func() error {
			ld, err := q.Wait(ctx)
			return cn.checkPos(obj, ld, err, before)
		}
	case gen.RangeQuery:
		cn.c.SetEntry(w.leaves[op.Entry])
		cn.rangeSeen++
		check := !w.cfg.SkipChecks && cn.rangeSeen%checkEvery == 0
		if check {
			cn.snapshot()
		}
		res, err := cn.c.RangeQueryFull(ctx, core.AreaFromRect(op.Rect), gen.RangeReqAcc, gen.RangeReqOverlap)
		switch {
		case err != nil:
			f.err = err
		case res.Partial:
			f.err = fmt.Errorf("%w: partial range answer", errWrong)
		case check:
			f.err = cn.checkRange(op.Rect, res.Objs)
		}
	case gen.NNQuery:
		cn.c.SetEntry(w.leaves[op.Entry])
		cn.nnSeen++
		check := !w.cfg.SkipChecks && cn.nnSeen%checkEvery == 0
		if check {
			cn.snapshot()
		}
		res, err := cn.c.NeighborQuery(ctx, op.Pos, gen.NNReqAcc, gen.NNNearQual)
		switch {
		case err != nil:
			f.err = err
		case res.Partial:
			f.err = fmt.Errorf("%w: partial neighbour answer", errWrong)
		case check:
			f.err = cn.checkNN(op.Pos, res)
		}
	}
	return f
}

// resolve waits for a pipelined op.
func (f *inflight) resolve() {
	if f.wait != nil {
		f.err = f.wait()
		f.wait = nil
	}
}

// cands are the positions an object may legitimately be reported at: the
// acknowledged one and one in flight, sampled when the query was issued and
// again when it returned.
type cands struct {
	v [4]uint64
	n int
}

func (c *cands) add(cell *truthCell) {
	c.v[c.n] = cell.pos.Load()
	c.n++
	if p := cell.pending.Load(); p != 0 {
		c.v[c.n] = p
		c.n++
	}
}

// checkPos validates a position answer: the descriptor must contain a
// position the generator put the object at — acknowledged or in flight,
// when the query was issued or when it returned — within its accuracy.
func (cn *conn) checkPos(obj int, ld core.LocationDescriptor, err error, at cands) error {
	if err != nil || cn.w.cfg.SkipChecks {
		return err
	}
	cn.posCheck++
	at.add(&cn.w.truth[obj])
	for _, c := range at.v[:at.n] {
		if unpack(c).Dist(ld.Pos) <= ld.Acc+1e-6 {
			return nil
		}
	}
	return fmt.Errorf("%w: %s reported at %v±%.1f, generator has it at %v", errWrong, cn.w.oids[obj], ld.Pos, ld.Acc, unpack(at.v[0]))
}

// snapshot records every object's update counters before a query that will
// be compared with a brute-force scan.
func (cn *conn) snapshot() {
	truth := cn.w.truth
	if cn.snapStarted == nil {
		cn.snapStarted = make([]uint32, len(truth))
		cn.snapDone = make([]uint32, len(truth))
	}
	for i := range truth {
		cn.snapDone[i] = truth[i].done.Load()
		cn.snapStarted[i] = truth[i].started.Load()
	}
}

// stable reports whether object i saw no update between the snapshot and
// now; only stable objects have one well-defined position for the query.
func (cn *conn) stable(i int) bool {
	s := cn.snapStarted[i]
	return cn.snapDone[i] == s && cn.w.truth[i].started.Load() == s
}

// offeredAcc is every object's offered accuracy: the registration asks for
// gen.RegDesAcc and every leaf can achieve it.
const offeredAcc = gen.RegDesAcc

// checkRange compares a range answer with a scan of the ground truth using
// the service's own qualification rule. Objects updated during the query
// are skipped in both directions; which objects those are is decided once,
// in the scan, because the other connection keeps updating while the
// comparison runs.
func (cn *conn) checkRange(r geo.Rect, got []core.Entry) error {
	cn.checkedRange++
	area := core.AreaFromRect(r)
	enlarged := r.Enlarge(offeredAcc)
	if cn.snapStable == nil {
		cn.snapStable = make([]bool, len(cn.w.truth))
	}
	want := make(map[core.OID]geo.Point)
	for i := range cn.w.truth {
		// Position first, stability second: a stable verdict then covers
		// the moment the position was read.
		p := unpack(cn.w.truth[i].pos.Load())
		cn.snapStable[i] = cn.stable(i)
		if !cn.snapStable[i] || !enlarged.ContainsClosed(p) {
			continue
		}
		if area.RangeQualifies(core.LocationDescriptor{Pos: p, Acc: offeredAcc}, gen.RangeReqAcc, gen.RangeReqOverlap) {
			want[cn.w.oids[i]] = p
		}
	}
	for _, e := range got {
		i := cn.w.index(e.OID)
		if i < 0 {
			return fmt.Errorf("%w: range answer names unknown object %s", errWrong, e.OID)
		}
		if !cn.snapStable[i] {
			cn.ambiguousSkips++
			continue
		}
		p, ok := want[e.OID]
		if !ok || p != e.LD.Pos {
			return fmt.Errorf("%w: range %v returned %s at %v, ground truth disagrees", errWrong, r, e.OID, e.LD.Pos)
		}
		delete(want, e.OID)
	}
	for oid, p := range want {
		li, _ := cn.w.cfg.LeafOf(p)
		return fmt.Errorf("%w: range %v entering at %s missed %d qualifying objects, e.g. %s at %v on %s",
			errWrong, r, cn.c.Entry(), len(want), oid, p, cn.w.leaves[li])
	}
	return nil
}

// checkNN compares a nearest-neighbour answer with the ground truth: no
// stable object may be nearer than the reported one, and a stable reported
// object must sit where the generator put it.
func (cn *conn) checkNN(p geo.Point, res client.NeighborResult) error {
	cn.checkedNN++
	i := cn.w.index(res.Nearest.OID)
	if i < 0 {
		return fmt.Errorf("%w: neighbour answer names unknown object %s", errWrong, res.Nearest.OID)
	}
	if at := unpack(cn.w.truth[i].pos.Load()); cn.stable(i) && at != res.Nearest.LD.Pos {
		return fmt.Errorf("%w: nearest %s reported at %v, generator has it at %v", errWrong, res.Nearest.OID, res.Nearest.LD.Pos, at)
	}
	got := res.Nearest.LD.Pos.Dist(p)
	for j := range cn.w.truth {
		q := unpack(cn.w.truth[j].pos.Load())
		if q.Dist(p) < got-1e-6 && cn.stable(j) {
			return fmt.Errorf("%w: nearest to %v reported %.2f m away, %s is %.2f m away", errWrong, p, got, cn.w.oids[j], q.Dist(p))
		}
	}
	return nil
}

// index maps an object id back to its index ("o000123" → 123).
func (w *World) index(oid core.OID) int {
	if len(oid) < 2 || oid[0] != 'o' {
		return -1
	}
	n := 0
	for _, c := range oid[1:] {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	if n >= len(w.oids) {
		return -1
	}
	return n
}
