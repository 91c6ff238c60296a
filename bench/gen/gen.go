package gen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"

	"locsvc/internal/geo"
)

// walkerPct is the share of the events workload's ops that are walker
// hops.
const walkerPct = 1

// Kind is an op's type.
type Kind uint8

// Op kinds.
const (
	Update Kind = iota
	PosQuery
	RangeQuery
	NNQuery
)

// Op is one generated operation.
type Op struct {
	Kind Kind
	// Obj is the target object of an update or position query.
	Obj int
	// Pos is an update's new position or a nearest-neighbour query point.
	Pos geo.Point
	// Rect is a range query's area.
	Rect geo.Rect
	// Entry is the leaf (Deploy.LeafOf index) at which a query enters.
	Entry int
	// Cross marks an update that leaves its current leaf (a handover).
	Cross bool
	// Trip is the tripwire an update flips, -1 for none; Fired is the
	// tripwire's state after the update.
	Trip  int
	Fired bool
}

// rng is splitmix64: eight bytes of state, so a stream per generator (and
// the per-object draws at start-up) cost nothing next to math/rand's 5 KB
// sources, and the sequence is fixed by this file alone.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// norm draws a standard normal deviate (Box-Muller).
func (r *rng) norm() float64 {
	u := 1 - r.float()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*r.float())
}

// Gen is the generated world of one (workload, seed): the population's
// starting positions plus the shared read-only tables the streams draw
// from.
type Gen struct {
	spec Spec
	seed uint64
	// home is every object's registration position; on every workload but
	// the commute one, updates jitter around it and never leave its leaf.
	home []geo.Point
	leaf []int32
	// zipfCDF and zipfPerm give position queries their popularity skew.
	zipfCDF  []float64
	zipfPerm []int32
	hotspots []geo.Point
	// leafW and leafH are the leaf grid's pitch.
	leafW, leafH float64
}

// quantum is the position grid: positions are multiples of 1/1024 m so the
// rig can pack one into a single atomic word without rounding.
const quantum = 1.0 / 1024

// fix clamps p into the root area, snaps it to the position grid and nudges
// it off leaf boundaries, so the responsible leaf is never ambiguous.
func (g *Gen) fix(p geo.Point) geo.Point {
	side := g.spec.Side
	one := func(v, cell float64) float64 {
		v = math.Min(math.Max(v, 1), side-1)
		v = math.Round(v/quantum) * quantum
		if math.Mod(v, cell) == 0 {
			v += quantum
		}
		return v
	}
	return geo.Pt(one(p.X, g.leafW), one(p.Y, g.leafH))
}

// inLeaf clamps p into the leaf area shrunk by margin.
func inLeaf(p geo.Point, leaf geo.Rect, margin float64) geo.Point {
	return leaf.Enlarge(-margin).ClampPoint(p)
}

// New builds the world of (spec, seed).
func New(spec Spec, seed int64) *Gen {
	g := &Gen{spec: spec, seed: uint64(seed), leafW: spec.Side, leafH: spec.Side}
	for _, l := range spec.Levels {
		g.leafW /= float64(l.Cols)
		g.leafH /= float64(l.Rows)
	}
	r := rng(g.seed*0x9e3779b97f4a7c15 + 1)
	side := spec.Side
	for _, f := range [][2]float64{{0.19, 0.19}, {0.78, 0.22}, {0.29, 0.74}, {0.69, 0.69}} {
		g.hotspots = append(g.hotspots, geo.Pt(f[0]*side, f[1]*side))
	}
	g.home = make([]geo.Point, spec.Objects)
	g.leaf = make([]int32, spec.Objects)
	uniform := func() geo.Point { return geo.Pt(r.float()*side, r.float()*side) }
	for i := range g.home {
		var p geo.Point
		switch spec.model {
		case modelCommute:
			// 70% commuters start around a hotspot, 30% wanderers
			// anywhere (stream.go decides the role the same way).
			if i%10 < 7 {
				p = g.nearHotspot(&r, r.intn(len(g.hotspots)), side/16)
			} else {
				p = uniform()
			}
		case modelCity:
			if r.intn(10) < 8 {
				p = g.nearHotspot(&r, r.intn(len(g.hotspots)), side/20)
			} else {
				p = uniform()
			}
		case modelTiered:
			p = uniform()
		case modelEvents:
			if i < len(spec.Tripwires) {
				p = walkerSpot(spec.Tripwires[i], false)
			} else {
				// Background objects live in the corridors left of
				// the tripwire columns and never enter a cell.
				p = geo.Pt(float64(r.intn(tripCols))*tripPitch+1+r.float()*11, r.float()*side)
			}
		}
		p = g.fix(p)
		if spec.model != modelCommute {
			// Jittered updates must stay inside the home leaf.
			_, area := spec.LeafOf(p)
			p = g.fix(inLeaf(p, area, 5))
		}
		g.home[i] = p
		li, _ := spec.LeafOf(p)
		g.leaf[i] = int32(li)
	}
	if spec.Mix.PosQ > 0 && spec.model == modelCity {
		// Zipf(0.9) over a seeded permutation of the objects.
		g.zipfCDF = make([]float64, spec.Objects)
		sum := 0.0
		for k := range g.zipfCDF {
			sum += 1 / math.Pow(float64(k+1), 0.9)
			g.zipfCDF[k] = sum
		}
		for k := range g.zipfCDF {
			g.zipfCDF[k] /= sum
		}
		g.zipfPerm = make([]int32, spec.Objects)
		for k := range g.zipfPerm {
			g.zipfPerm[k] = int32(k)
		}
		for k := len(g.zipfPerm) - 1; k > 0; k-- {
			j := r.intn(k + 1)
			g.zipfPerm[k], g.zipfPerm[j] = g.zipfPerm[j], g.zipfPerm[k]
		}
	}
	return g
}

func (g *Gen) nearHotspot(r *rng, h int, sigma float64) geo.Point {
	c := g.hotspots[h]
	return geo.Pt(c.X+r.norm()*sigma, c.Y+r.norm()*sigma)
}

// walkerSpot is where a tripwire's walker stands: the cell centre when
// inside, a point in the corridor 10 m left of the cell when outside.
func walkerSpot(cell geo.Rect, inside bool) geo.Point {
	c := cell.Center()
	if inside {
		return c
	}
	return geo.Pt(cell.Min.X-10, c.Y)
}

// Initial returns every object's registration position.
func (g *Gen) Initial() []geo.Point { return g.home }

// Stream is one generator goroutine's op sequence. Stream i updates only
// the objects whose index is i modulo Streams, so the streams share no
// mutable state and each is a pure function of (workload, seed, i).
type Stream struct {
	g   *Gen
	rng rng
	// own lists the objects this stream updates; next walks them.
	own  []int32
	next int
	// Commute state, indexed like own.
	cur, dest []geo.Point
	speed     []float32
	// Tiered state: the hot tenth and the cold rest of own.
	hot, cold []int32
	// Events state: this stream's walkers, their inside flags, and its
	// background objects.
	walkers  []int32
	inside   []bool
	nextWalk int
	backgrnd []int32
}

// Stream returns stream i's generator, positioned at its first op.
func (g *Gen) Stream(i int) *Stream {
	s := &Stream{g: g, rng: rng((g.seed+1)*0xd1342543de82ef95 + uint64(i)*0x2545f4914f6cdd1d)}
	for o := i; o < g.spec.Objects; o += Streams {
		s.own = append(s.own, int32(o))
	}
	switch g.spec.model {
	case modelCommute:
		s.cur = make([]geo.Point, len(s.own))
		s.dest = make([]geo.Point, len(s.own))
		s.speed = make([]float32, len(s.own))
		for k, o := range s.own {
			s.cur[k] = g.home[o]
			s.speed[k] = float32(10 + 10*s.rng.float())
			s.dest[k] = s.newDest(int(o), -1)
		}
	case modelTiered:
		for k, o := range s.own {
			if k%10 == 0 {
				s.hot = append(s.hot, o)
			} else {
				s.cold = append(s.cold, o)
			}
		}
	case modelEvents:
		for _, o := range s.own {
			if int(o) < len(g.spec.Tripwires) {
				s.walkers = append(s.walkers, o)
			} else {
				s.backgrnd = append(s.backgrnd, o)
			}
		}
		s.inside = make([]bool, len(s.walkers))
	}
	return s
}

// commuter reports whether object o commutes between hotspots (true) or
// wanders between random waypoints.
func commuter(o int) bool { return o%10 < 7 }

// newDest picks object o's next destination: commuters head for a hotspot
// other than the one nearest to them, wanderers anywhere.
func (s *Stream) newDest(o, k int) geo.Point {
	g := s.g
	side := g.spec.Side
	if !commuter(o) {
		return g.fix(geo.Pt(s.rng.float()*side, s.rng.float()*side))
	}
	from := g.home[o]
	if k >= 0 {
		from = s.cur[k]
	}
	nearest, best := 0, math.Inf(1)
	for h, c := range g.hotspots {
		if d := c.Dist2(from); d < best {
			nearest, best = h, d
		}
	}
	h := (nearest + 1 + s.rng.intn(len(g.hotspots)-1)) % len(g.hotspots)
	return g.fix(g.nearHotspot(&s.rng, h, side/16))
}

// commuteStep moves own[k] for five simulated seconds: commuters along the
// street grid (first east-west, then north-south), wanderers in a straight
// line.
func (s *Stream) commuteStep(k int) geo.Point {
	o := int(s.own[k])
	p, d := s.cur[k], s.dest[k]
	left := float64(s.speed[k]) * 5
	if commuter(o) {
		if dx := d.X - p.X; dx != 0 {
			m := math.Copysign(math.Min(math.Abs(dx), left), dx)
			p.X += m
			left -= math.Abs(m)
		}
		if dy := d.Y - p.Y; dy != 0 && left > 0 {
			p.Y += math.Copysign(math.Min(math.Abs(dy), left), dy)
		}
	} else {
		if dist := p.Dist(d); dist <= left {
			p = d
		} else {
			p = p.Lerp(d, left/dist)
		}
	}
	p = s.g.fix(p)
	if p.Dist(d) < 1 {
		s.dest[k] = s.newDest(o, k)
	}
	s.cur[k] = p
	return p
}

// jitter returns a position within four metres of o's home, inside its
// home leaf.
func (s *Stream) jitter(o int, dx, dy float64) geo.Point {
	g := s.g
	h := g.home[o]
	p := geo.Pt(h.X+(2*s.rng.float()-1)*dx, h.Y+(2*s.rng.float()-1)*dy)
	_, area := g.spec.LeafOf(h)
	return g.fix(inLeaf(p, area, 1))
}

// squareIn returns a square of the given side centred as close to c as
// fits inside bounds.
func squareIn(c geo.Point, side float64, bounds geo.Rect) geo.Rect {
	c = bounds.Enlarge(-side/2 - 0.5).ClampPoint(c)
	return geo.RectAround(c, side/2)
}

func (s *Stream) anyObject() int { return s.rng.intn(s.g.spec.Objects) }

// Next generates the stream's next op into op.
func (s *Stream) Next(op *Op) {
	g := s.g
	spec := &g.spec
	*op = Op{Trip: -1}
	roll := s.rng.intn(100)
	switch {
	case roll < spec.Mix.PosQ:
		op.Kind = PosQuery
		s.posQuery(op)
	case roll < spec.Mix.PosQ+spec.Mix.RangeQ:
		op.Kind = RangeQuery
		s.rangeQuery(op)
	case roll < spec.Mix.PosQ+spec.Mix.RangeQ+spec.Mix.NNQ:
		op.Kind = NNQuery
		o := s.anyObject()
		op.Pos = g.fix(geo.Pt(g.home[o].X+s.rng.norm()*50, g.home[o].Y+s.rng.norm()*50))
		op.Entry, _ = spec.LeafOf(op.Pos)
	default:
		op.Kind = Update
		s.update(op, roll)
	}
}

func (s *Stream) posQuery(op *Op) {
	g := s.g
	if g.zipfCDF != nil {
		rank := sort.SearchFloat64s(g.zipfCDF, s.rng.float())
		if rank >= len(g.zipfPerm) {
			rank = len(g.zipfPerm) - 1
		}
		op.Obj = int(g.zipfPerm[rank])
		op.Entry = int(g.leaf[op.Obj])
		// Half the queries enter at a leaf other than the object's.
		if n := g.spec.Leaves(); n > 1 && s.rng.intn(2) == 0 {
			op.Entry = (op.Entry + 1 + s.rng.intn(n-1)) % n
		}
		return
	}
	op.Obj = s.anyObject()
	op.Entry = int(g.leaf[op.Obj])
}

func (s *Stream) rangeQuery(op *Op) {
	g := s.g
	spec := &g.spec
	c := g.home[s.anyObject()]
	root := geo.R(0, 0, spec.Side, spec.Side)
	switch {
	case spec.model == modelTiered:
		_, area := spec.LeafOf(c)
		op.Rect = squareIn(c, 200, area)
	case s.rng.intn(5) > 0:
		// Small square inside one leaf, placed by object density.
		c = geo.Pt(c.X+(2*s.rng.float()-1)*50, c.Y+(2*s.rng.float()-1)*50)
		_, area := spec.LeafOf(g.fix(c))
		op.Rect = squareIn(c, 100, area)
	default:
		// 1 km square pulled onto the nearest leaf boundary in x, and
		// in y half the time: it straddles two to four leaves.
		_, area := spec.LeafOf(c)
		pull := func(v, lo, hi float64) float64 {
			b := lo
			if v-lo > hi-v {
				b = hi
			}
			if b <= 0 || b >= spec.Side {
				b = lo + hi - b
			}
			return b + (2*s.rng.float()-1)*400
		}
		c.X = pull(c.X, area.Min.X, area.Max.X)
		if s.rng.intn(2) == 0 {
			c.Y = pull(c.Y, area.Min.Y, area.Max.Y)
		}
		op.Rect = squareIn(c, 1000, root)
	}
	op.Entry, _ = spec.LeafOf(op.Rect.Center())
}

func (s *Stream) update(op *Op, roll int) {
	g := s.g
	switch g.spec.model {
	case modelCommute:
		k := s.next
		s.next = (s.next + 1) % len(s.own)
		op.Obj = int(s.own[k])
		before, _ := g.spec.LeafOf(s.cur[k])
		op.Pos = s.commuteStep(k)
		after, _ := g.spec.LeafOf(op.Pos)
		op.Cross = before != after
	case modelCity:
		op.Obj = int(s.own[s.rng.intn(len(s.own))])
		op.Pos = s.jitter(op.Obj, 4, 4)
	case modelTiered:
		// A tenth of the objects takes nine tenths of the updates.
		if s.rng.intn(10) < 9 {
			op.Obj = int(s.hot[s.rng.intn(len(s.hot))])
		} else {
			op.Obj = int(s.cold[s.rng.intn(len(s.cold))])
		}
		op.Pos = s.jitter(op.Obj, 4, 4)
	case modelEvents:
		// One op in a hundred is a walker hop, each flipping one
		// tripwire: about half of what the notifier sustains (it sends
		// one blocking call at a time per destination).
		if roll < g.spec.Mix.PosQ+walkerPct && len(s.walkers) > 0 {
			k := s.nextWalk
			s.nextWalk = (s.nextWalk + 1) % len(s.walkers)
			s.inside[k] = !s.inside[k]
			op.Obj = int(s.walkers[k])
			op.Trip = op.Obj
			op.Fired = s.inside[k]
			op.Pos = g.fix(walkerSpot(g.spec.Tripwires[op.Trip], op.Fired))
			return
		}
		op.Obj = int(s.backgrnd[s.rng.intn(len(s.backgrnd))])
		op.Pos = s.jitter(op.Obj, 0, 2)
	}
}

// Hash folds the first n ops of every stream of (spec, seed) into one
// value, for the determinism test and for the run report.
func Hash(spec Spec, seed int64, n int) uint64 {
	g := New(spec, seed)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { put(math.Float64bits(v)) }
	for _, p := range g.home {
		f(p.X)
		f(p.Y)
	}
	for i := 0; i < Streams; i++ {
		s := g.Stream(i)
		var op Op
		for k := 0; k < n; k++ {
			s.Next(&op)
			put(uint64(op.Kind)<<32 | uint64(uint32(op.Obj)))
			put(uint64(op.Entry)<<32 | uint64(uint32(op.Trip)))
			f(op.Pos.X)
			f(op.Pos.Y)
			f(op.Rect.Min.X)
			f(op.Rect.Min.Y)
			f(op.Rect.Max.X)
			f(op.Rect.Max.Y)
		}
	}
	return h.Sum64()
}
