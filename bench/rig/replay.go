package rig

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"locsvc/bench/gen"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
	"locsvc/internal/spatial"
	"locsvc/internal/store"
	"locsvc/internal/wire"
)

// Replay holds the layer replays' results: the traced pass's op sequence
// played straight into a store, a spatial index and the codec, each
// configured like the busiest leaf of the deployment. Everything here runs
// on one goroutine with maintenance triggered by op count, so the counts
// repeat exactly for a given op sequence.
type Replay struct {
	// Store: mean microseconds per call into the leaf's sighting store.
	PutUS, GetUS, SearchUS, NearestUS float64
	// PutStallP99US is the 99th percentile, over flush and compaction
	// passes on another goroutine, of the slowest put that overlapped one.
	PutStallP99US  float64
	MaintainBusyMS float64
	// WALBytesPerUpdate is measured on an untiered store (a flush resets
	// the log); DiskBytesPerUpdate counts every byte the process wrote
	// during the configured store's replay (log, runs, manifests).
	WALBytesPerUpdate, DiskBytesPerUpdate, SpaceBytesPerObject float64
	RunProbesPerGet, BloomSkipRatio                            float64
	Flushes, Compactions                                       float64
	RecoverMS                                                  float64
	// Spatial: the bare index under the store.
	InsertUS, IndexSearchUS, IndexNearestUS, ResultsPerSearch, StabUS float64
	// Wire: the traced pass's own message mix through the codec.
	EncodeNS, DecodeNS, BytesPerEnvelope, AllocsPerRoundtrip float64
}

// maintainEvery is how many puts pass between tier maintenance calls in
// the replay: the op-count stand-in for the janitor's tick.
const maintainEvery = 512

// leafOps selects the ops that land on one leaf.
func (w *World) leafOps(ops []gen.Op) (leaf int, area geo.Rect, mine []gen.Op) {
	target := func(op *gen.Op) int {
		switch op.Kind {
		case gen.Update:
			li, _ := w.cfg.LeafOf(op.Pos)
			return li
		case gen.PosQuery:
			li, _ := w.cfg.LeafOf(w.initial[op.Obj])
			return li
		}
		return op.Entry
	}
	count := make([]int, len(w.leaves))
	for i := range ops {
		count[target(&ops[i])]++
	}
	for li, n := range count {
		if n > count[leaf] {
			leaf = li
		}
	}
	for i := range ops {
		if target(&ops[i]) == leaf {
			mine = append(mine, ops[i])
		}
	}
	for _, p := range w.initial {
		if li, a := w.cfg.LeafOf(p); li == leaf {
			area = a
			break
		}
	}
	return leaf, area, mine
}

// procWritten returns the bytes this process has passed to write calls.
func procWritten() int64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "wchar: "); ok {
			n, _ := strconv.ParseInt(rest, 10, 64)
			return n
		}
	}
	return 0
}

func dirBytes(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// leafStore opens a sighting store configured like the deployment's leaves.
func (w *World) leafStore(dir string, tiered bool) (store.SightingStore, *store.ShardedSightingDB, *store.ShardedWAL, error) {
	cfg := w.cfg
	if !cfg.WAL {
		if cfg.Shards > 1 {
			db := store.NewShardedSightingDB(store.WithShards(cfg.Shards))
			return db, db, nil, nil
		}
		return store.NewSightingDB(), nil, nil, nil
	}
	wal, err := store.OpenShardedWAL(dir, cfg.Shards)
	if err != nil {
		return nil, nil, nil, err
	}
	opts := []store.SightingDBOption{store.WithShards(cfg.Shards), store.WithSightingWAL(wal)}
	if tiered && cfg.MemtableBytes > 0 {
		opts = append(opts, store.WithTiering(store.TierConfig{MemtableBytes: cfg.MemtableBytes}))
	}
	db := store.NewShardedSightingDB(opts...)
	if err := db.Recover(); err != nil {
		wal.Close()
		return nil, nil, nil, err
	}
	return db, db, wal, nil
}

// Replay plays ops (the traced pass's sequence) into the layers.
func (w *World) Replay(ops []gen.Op, sample []msg.Envelope, dir string) (Replay, error) {
	var r Replay
	_, area, mine := w.leafOps(ops)
	// The leaf's population is taken at its registration positions, not
	// where the (time-bounded) phases left it, so the replay's input is
	// the same every run.
	var residents []int
	for i, p := range w.initial {
		if area.Contains(p) {
			residents = append(residents, i)
		}
	}
	if err := w.replayStore(&r, mine, residents, dir); err != nil {
		return r, err
	}
	w.replaySpatial(&r, mine, residents, area)
	if w.cfg.UDP {
		if err := replayWire(&r, sample); err != nil {
			return r, err
		}
	}
	return r, nil
}

func (w *World) sighting(obj int, p geo.Point) core.Sighting {
	return core.Sighting{OID: w.oids[obj], T: time.Now(), Pos: p, SensAcc: gen.SensAcc}
}

func mean(total time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n) / 1e3
}

func (w *World) replayStore(r *Replay, ops []gen.Op, residents []int, dir string) error {
	cfg := w.cfg
	tiered := cfg.MemtableBytes > 0
	storeDir := filepath.Join(dir, "replay-store")
	db, sdb, wal, err := w.leafStore(storeDir, true)
	if err != nil {
		return fmt.Errorf("rig: replay store: %w", err)
	}
	closeStore := func() error {
		if wal != nil {
			return wal.Close()
		}
		return nil
	}
	pipe := store.NewUpdatePipeline(db)
	maintain := func() error {
		if !tiered {
			return nil
		}
		t0 := time.Now()
		err := sdb.MaintainTiers()
		r.MaintainBusyMS += float64(time.Since(t0)) / 1e6
		return err
	}
	for k, i := range residents {
		pipe.Put(w.sighting(i, w.initial[i]))
		if k%maintainEvery == 0 {
			if err := maintain(); err != nil {
				closeStore()
				return err
			}
		}
	}
	r.MaintainBusyMS = 0
	var tier0 store.TierStats
	if tiered {
		tier0 = sdb.TierStats()
	}
	written0 := procWritten()

	var puts, gets, searches, nearests int
	var putT, getT, searchT, nearT time.Duration
	for i := range ops {
		op := &ops[i]
		t0 := time.Now()
		switch op.Kind {
		case gen.Update:
			pipe.Put(w.sighting(op.Obj, op.Pos))
			putT += time.Since(t0)
			puts++
			if puts%maintainEvery == 0 {
				if err := maintain(); err != nil {
					closeStore()
					return err
				}
			}
		case gen.PosQuery:
			db.Get(w.oids[op.Obj])
			getT += time.Since(t0)
			gets++
		case gen.RangeQuery:
			db.SearchArea(op.Rect.Enlarge(gen.RangeReqAcc), func(core.Sighting) bool { return true })
			searchT += time.Since(t0)
			searches++
		case gen.NNQuery:
			db.NearestFunc(op.Pos, func(core.Sighting, float64) bool { return false })
			nearT += time.Since(t0)
			nearests++
		}
	}
	r.PutUS, r.GetUS = mean(putT, puts), mean(getT, gets)
	r.SearchUS, r.NearestUS = mean(searchT, searches), mean(nearT, nearests)
	if wal != nil {
		if err := wal.Flush(); err != nil {
			closeStore()
			return err
		}
		if puts > 0 {
			r.DiskBytesPerUpdate = float64(procWritten()-written0) / float64(puts)
		}
		r.SpaceBytesPerObject = float64(dirBytes(storeDir)) / float64(len(residents))
	}
	if tiered {
		ts := sdb.TierStats()
		r.Flushes = float64(ts.Flushes - tier0.Flushes)
		r.Compactions = float64(ts.Compactions - tier0.Compactions)
		// Probes are counted over a pass of gets alone, so updates'
		// own lookups do not blur the per-get figure.
		before := sdb.TierStats()
		n := 0
		for i := range ops {
			if ops[i].Kind == gen.PosQuery {
				db.Get(w.oids[ops[i].Obj])
				n++
			}
		}
		after := sdb.TierStats()
		hits, misses := after.BloomHits-before.BloomHits, after.BloomMisses-before.BloomMisses
		if n > 0 {
			r.RunProbesPerGet = float64(hits) / float64(n)
		}
		r.BloomSkipRatio = ratio(misses, hits+misses)
		r.PutStallP99US = w.stallProbe(pipe, sdb, residents)
	}

	// Recovery: close and reopen the same directory.
	if wal != nil {
		if err := closeStore(); err != nil {
			return err
		}
		t0 := time.Now()
		_, _, wal2, err := w.leafStore(storeDir, true)
		if err != nil {
			return fmt.Errorf("rig: replay recovery: %w", err)
		}
		r.RecoverMS = float64(time.Since(t0)) / 1e6
		if err := wal2.Close(); err != nil {
			return err
		}
	}

	// Log bytes per update on an untiered store: a tier flush resets the
	// log, so its size there says nothing about bytes appended.
	if cfg.WAL {
		logDir := filepath.Join(dir, "replay-wal")
		ldb, _, lwal, err := w.leafStore(logDir, false)
		if err != nil {
			return fmt.Errorf("rig: replay log store: %w", err)
		}
		lpipe := store.NewUpdatePipeline(ldb)
		if err := lwal.Flush(); err != nil {
			lwal.Close()
			return err
		}
		base, n := dirBytes(logDir), 0
		for i := range ops {
			if ops[i].Kind == gen.Update && n < 20000 {
				lpipe.Put(w.sighting(ops[i].Obj, ops[i].Pos))
				n++
			}
		}
		if err := lwal.Flush(); err != nil {
			lwal.Close()
			return err
		}
		if n > 0 {
			r.WALBytesPerUpdate = float64(dirBytes(logDir)-base) / float64(n)
		}
		if err := lwal.Close(); err != nil {
			return err
		}
	}
	return nil
}

// stallProbe measures what a put pays while a flush or compaction runs
// beside it: a second goroutine keeps calling MaintainTiers, the caller's
// goroutine keeps rewriting resident objects, and for every pass that
// really flushed or compacted the slowest overlapping put is kept; the
// result is the 99th percentile over passes. It runs after the
// counted replay, so its timing-dependent interleaving cannot disturb the
// counts.
func (w *World) stallProbe(pipe *store.UpdatePipeline, sdb *store.ShardedSightingDB, residents []int) float64 {
	type span struct{ from, to time.Time }
	var passes []span
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			before := sdb.TierStats()
			from := time.Now()
			sdb.MaintainTiers()
			to := time.Now()
			if after := sdb.TierStats(); after.Flushes+after.Compactions != before.Flushes+before.Compactions {
				passes = append(passes, span{from, to})
			}
			runtime.Gosched()
		}
	}()
	var puts []span
	deadline := time.Now().Add(400 * time.Millisecond)
	for k := 0; ; k++ {
		i := residents[k%len(residents)]
		from := time.Now()
		if from.After(deadline) {
			break
		}
		pipe.Put(w.sighting(i, w.initial[i]))
		puts = append(puts, span{from, time.Now()})
	}
	close(stop)
	wg.Wait()
	// One goroutine puts, so each pass stalls at most one put for long:
	// keep every pass's slowest overlapping put.
	stalled := make([]int64, len(passes))
	k := 0
	for _, p := range puts {
		for k < len(passes) && passes[k].to.Before(p.from) {
			k++
		}
		if k < len(passes) && passes[k].from.Before(p.to) {
			if d := int64(p.to.Sub(p.from)); d > stalled[k] {
				stalled[k] = d
			}
		}
	}
	return Percentile(stalled, 0.99) * 1e3
}

func (w *World) replaySpatial(r *Replay, ops []gen.Op, residents []int, area geo.Rect) {
	ix := spatial.New(spatial.KindQuadtree)
	at := make(map[int]geo.Point, len(residents))
	for _, i := range residents {
		p := w.initial[i]
		ix.Insert(w.oids[i], p)
		at[i] = p
	}
	var stab *spatial.RectIndex
	if len(w.cfg.Tripwires) > 0 {
		stab = spatial.NewRectIndex(area)
		for k, cell := range w.cfg.Tripwires {
			if b := cell.Enlarge(gen.TripReqAcc); area.ContainsRect(b) {
				stab.Insert(tripID(k), b)
			}
		}
	}
	var moves, searches, nearests, results, stabs int
	var moveT, searchT, nearT, stabT time.Duration
	for i := range ops {
		op := &ops[i]
		t0 := time.Now()
		switch op.Kind {
		case gen.Update:
			if old, ok := at[op.Obj]; ok {
				ix.Remove(w.oids[op.Obj], old)
			}
			ix.Insert(w.oids[op.Obj], op.Pos)
			moveT += time.Since(t0)
			moves++
			at[op.Obj] = op.Pos
			if stab != nil {
				t1 := time.Now()
				stab.Stab(op.Pos, func(string, geo.Rect) bool { return true })
				stabT += time.Since(t1)
				stabs++
			}
		case gen.RangeQuery:
			ix.Search(op.Rect.Enlarge(gen.RangeReqAcc), func(core.OID, geo.Point) bool {
				results++
				return true
			})
			searchT += time.Since(t0)
			searches++
		case gen.NNQuery:
			ix.NearestFunc(op.Pos, func(core.OID, geo.Point, float64) bool { return false })
			nearT += time.Since(t0)
			nearests++
		}
	}
	r.InsertUS, r.IndexSearchUS = mean(moveT, moves), mean(searchT, searches)
	r.IndexNearestUS, r.StabUS = mean(nearT, nearests), mean(stabT, stabs)
	if searches > 0 {
		r.ResultsPerSearch = float64(results) / float64(searches)
	}
}

// replayWire runs the sampled envelopes through the binary codec.
func replayWire(r *Replay, sample []msg.Envelope) error {
	if len(sample) == 0 {
		return nil
	}
	encoded := make([][]byte, len(sample))
	var bytes int
	for i, env := range sample {
		data, err := wire.Encode(env)
		if err != nil {
			return fmt.Errorf("rig: wire replay: %w", err)
		}
		encoded[i] = data
		bytes += len(data)
	}
	r.BytesPerEnvelope = float64(bytes) / float64(len(sample))
	rounds := 40000/len(sample) + 1
	buf := make([]byte, 0, 4096)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var encT, decT time.Duration
	for k := 0; k < rounds; k++ {
		t0 := time.Now()
		for _, env := range sample {
			var err error
			if buf, err = wire.AppendEncode(buf[:0], env); err != nil {
				return err
			}
		}
		t1 := time.Now()
		for _, data := range encoded {
			if _, err := wire.Decode(data); err != nil {
				return err
			}
		}
		encT += t1.Sub(t0)
		decT += time.Since(t1)
	}
	runtime.ReadMemStats(&ms1)
	n := rounds * len(sample)
	r.EncodeNS = float64(encT) / float64(n)
	r.DecodeNS = float64(decT) / float64(n)
	r.AllocsPerRoundtrip = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	return nil
}
