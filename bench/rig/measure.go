package rig

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"locsvc/bench/gen"
	"locsvc/bench/tracenet"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
)

// Metric is one reported number. N is the sample count behind a latency
// percentile (0 where it does not apply).
type Metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

// Result is the outcome of one pass over one workload.
type Result struct {
	Metrics []Metric
	// Attempted and Failed count ops over the measured phases, answer
	// checks included; Causes and Examples explain Failed.
	Attempted, Failed int
	Causes            map[string]int
	Examples          []string
	// Notes are human-readable remarks (counts that back a metric).
	Notes []string
	// Spans is the traced pass's span list (nil for the end-to-end pass).
	Spans []tracenet.Span
}

func (r *Result) add(name, unit string, v float64) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Unit: unit, Value: v})
}

func (r *Result) count(p *Phase) {
	r.Attempted += p.Attempted
	r.Failed += p.Failed
	if r.Causes == nil {
		r.Causes = make(map[string]int)
	}
	for c, n := range p.Causes {
		r.Causes[c] += n
	}
	for _, e := range p.Examples {
		if len(r.Examples) < 8 {
			r.Examples = append(r.Examples, e)
		}
	}
}

// p99Min is the sample count below which a 99th percentile is not
// reported: 20 samples must lie beyond it.
const p99Min = 2000

func p50Metric(p *Phase, c Class) Metric {
	ns := p.Lat[c]
	return Metric{Name: ClassNames[c] + "_p50_ms", Unit: "ms", Value: Percentile(ns, 0.50), N: len(ns)}
}

// p99Metric reports 0 when the sample cannot support a 99th percentile.
func p99Metric(p *Phase, c Class) Metric {
	ns := p.Lat[c]
	m := Metric{Name: ClassNames[c] + "_p99_ms", Unit: "ms", N: len(ns)}
	if len(ns) >= p99Min {
		m.Value = Percentile(ns, 0.99)
	}
	return m
}

// countedOps is the prefix of the traced pass the message counts are taken
// over, and replayedOps the prefix the layer replays play: both are reached
// in every traced pass of the default length (the UDP workload traces about
// 2 600 ops, so its replay is shorter), and counts over a fixed prefix of
// the deterministic op sequence repeat exactly.
const (
	countedOps  = 2000
	replayedOps = 10000
)

// slices is how many times the end-to-end pass alternates between its
// closed-loop and its paced phase.
const slices = 7

// setups is how many times the end-to-end pass sets the deployment up; the
// reported setup_s is their median, the last one is measured.
const setups = 3

// phase lengths as shares of the run's measuring time.
const (
	warmShare  = 1.0 / 8
	mainShare  = 7.0 / 16 // closed-loop and paced phase of the end-to-end pass
	pacedShare = 3.0 / 8  // traced pass: paced phase, and traced phase
	soloShare  = 1.0 / 8  // traced pass: untraced single-client phase
)

func share(seconds, s float64) time.Duration {
	return time.Duration(seconds * s * float64(time.Second))
}

// EndToEnd runs the untraced pass: set up (several times), warm up, a
// closed-loop phase with every connection, a paced open-loop phase, then
// the durability check. streams continue across the phases.
func EndToEnd(cfg gen.Deploy, initial []geo.Point, streams []*gen.Stream, dir string, seconds float64) (Result, error) {
	var res Result
	var w *World
	var took []float64
	for k := 0; k < setups; k++ {
		if w != nil {
			if err := w.Close(); err != nil {
				return res, err
			}
			os.RemoveAll(w.dir)
		}
		t0 := time.Now()
		var err error
		w, err = Setup(cfg, initial, filepath.Join(dir, fmt.Sprintf("setup%d", k)), false)
		if err != nil {
			return res, err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	defer func() {
		w.Close()
		os.RemoveAll(w.dir)
	}()
	sort.Float64s(took)
	res.add("setup_s", "s", took[len(took)/2])

	w.Run(streams, gen.Streams, share(seconds, warmShare), 0, cfg.Pipeline)
	before, err := w.Counters()
	if err != nil {
		return res, err
	}
	// The closed-loop and the paced phase alternate in slices, and the
	// throughput is the median over its slices: a burst of host noise then
	// costs a few slices of each phase, not a stretch of one, and the median
	// ignores the slices it hit.
	var sat, paced Phase
	var rates []float64
	slice := share(seconds, mainShare) / slices
	for k := 0; k < slices; k++ {
		s := w.Run(streams, gen.Streams, slice, 0, cfg.Pipeline)
		p := w.Run(streams, gen.Streams, slice, cfg.PacedRate, cfg.Pipeline)
		rates = append(rates, s.OpsPerSec())
		sat.merge(&s)
		paced.merge(&p)
		sat.Dur += s.Dur
		paced.Dur += p.Dur
	}
	after, err := w.Counters()
	if err != nil {
		return res, err
	}
	res.count(&sat)
	res.count(&paced)
	sort.Float64s(rates)
	res.add("ops_per_s", "1/s", rates[slices/2])
	res.Notes = append(res.Notes,
		fmt.Sprintf("closed loop: %d ops in %.2fs; paced: %d ops in %.2fs at %.0f/s, generator late p99 %.3f ms",
			sat.Attempted, sat.Dur.Seconds(), paced.Attempted, paced.Dur.Seconds(), cfg.PacedRate, Percentile(paced.Late, 0.99)))
	res.Notes = append(res.Notes, "closed loop "+classSummary(&sat), "paced "+classSummary(&paced))
	if cfg.MinFlushes > 0 {
		d := after.Sub(before).Tier
		res.Notes = append(res.Notes, fmt.Sprintf("tier activity over the phases: %d flushes, %d compactions on %d shards",
			d.Flushes, d.Compactions, cfg.Leaves()*cfg.Shards))
		if err := w.VerifyTierActivity(d); err != nil {
			return res, err
		}
	}
	res.Notes = append(res.Notes, w.checkNote())
	var checks Phase
	if cfg.Reopen {
		if err := w.reopenAndVerify(&checks); err != nil {
			return res, err
		}
	}
	res.count(&checks)
	if checks.Attempted > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("reopen check: %d acknowledged positions read back, %d wrong", checks.Attempted, checks.Failed))
	}
	return res, nil
}

// Layers runs the traced pass: one set-up on a tracenet-wrapped network, a
// closed loop with one connection traced and then untraced, a warm-up and a
// paced phase with every connection and tracing off (the latencies and the
// counters that need concurrency), and the layer replays.
func Layers(cfg gen.Deploy, initial []geo.Point, streams []*gen.Stream, dir string, seconds float64) (Result, error) {
	var res Result
	w, err := Setup(cfg, initial, filepath.Join(dir, "traced"), true)
	if err != nil {
		return res, err
	}
	defer func() {
		w.Close()
		os.RemoveAll(dir)
	}()
	// The traced phase comes first, so that it starts at the head of the
	// op stream whatever the machine's speed: its first ops, over which
	// the counts are taken, are then the same ops in every run.
	traced, unquiet := w.RunTraced(streams[0], share(seconds, pacedShare))
	solo := w.Run(streams, 1, share(seconds, soloShare), 0, 1)
	w.Run(streams, gen.Streams, share(seconds, warmShare), 0, cfg.Pipeline)
	before, err := w.Counters()
	if err != nil {
		return res, err
	}
	paced := w.Run(streams, gen.Streams, share(seconds, pacedShare), cfg.PacedRate, cfg.Pipeline)
	after, err := w.Counters()
	if err != nil {
		return res, err
	}
	res.count(&paced)
	res.count(&solo)
	res.count(&traced)

	spans, dropped := w.trace.Spans()
	rep := tracenet.Analyze(spans, w.isServer)
	res.Spans = spans
	counts := tracenet.Analyze(tracenet.Prefix(spans, countedOps), w.isServer)
	recorded := traced.Recorded
	if len(recorded) > replayedOps {
		recorded = recorded[:replayedOps]
	}
	replay, err := w.Replay(recorded, w.trace.Sample(), dir)
	if err != nil {
		return res, err
	}
	w.layerMetrics(&res, &paced, &solo, &traced, after.Sub(before), rep, counts, replay)
	res.Notes = append(res.Notes, w.checkNote())
	res.Notes = append(res.Notes,
		fmt.Sprintf("traced pass: %d ops, %d spans (%d dropped at the cap, %d outside any op), %d ops not followed by a quiet network; message counts over the first %d ops, replays over the first %d",
			traced.Attempted, len(spans), dropped, rep.Orphans, unquiet, min(countedOps, traced.Attempted), len(recorded)))
	return res, nil
}

// layerMetrics assembles the per-layer list. counts are the paced phase's
// counters, rep the analysis of every traced op (the times), prefix that of
// the first countedOps ops (the message counts).
func (w *World) layerMetrics(res *Result, paced, solo, traced *Phase, counts Counters, rep, prefix tracenet.Report, rp Replay) {
	class := func(r tracenet.Report, c Class) tracenet.ClassStats {
		if s := r.Class[uint8(c)]; s != nil {
			return *s
		}
		return tracenet.ClassStats{}
	}
	upd, hov, posq, rq, nnq := class(rep, ClassUpdate), class(rep, ClassHandover), class(rep, ClassPosQ), class(rep, ClassRangeQ), class(rep, ClassNNQ)
	named := counts.Named
	ops := int64(paced.Attempted)

	// The latencies cannot be end-to-end metrics under the driver's
	// contract: the class ones because every end-to-end metric must exist,
	// non-zero, on every workload, the update ones because they do not
	// repeat within their bound on the reference VM (see README.md). They
	// keep their names here and come from this pass's paced phase.
	for c := ClassUpdate; c < NumClasses; c++ {
		res.Metrics = append(res.Metrics, p50Metric(paced, c), p99Metric(paced, c))
	}
	res.add("fail_ratio", "ratio", ratio(int64(res.Failed), int64(res.Attempted)))

	res.add("client.update_self_us", "us", upd.ClientSelfUS)
	res.add("client.posq_self_us", "us", posq.ClientSelfUS)
	res.add("client.rangeq_self_us", "us", rq.ClientSelfUS)
	res.add("client.nnq_self_us", "us", nnq.ClientSelfUS)

	res.add("transport.hop_us", "us", rep.HopUS)
	res.add("transport.datagrams_per_op", "count", ratio(named["wire_datagrams_out"], ops))
	res.add("transport.envelopes_per_datagram", "count", ratio(named["wire_envelopes_out"], named["wire_datagrams_out"]))
	res.add("transport.bytes_per_op", "B", ratio(named["wire_bytes_out"], ops))
	res.add("transport.call_timeouts", "count", float64(named["wire_call_timeouts"]))
	res.add("transport.retries", "count", float64(named["wire_retries"]))
	res.add("transport.late_replies", "count", float64(named["wire_late_replies"]))

	res.add("wire.encode_ns", "ns", rp.EncodeNS)
	res.add("wire.decode_ns", "ns", rp.DecodeNS)
	res.add("wire.bytes_per_envelope", "B", rp.BytesPerEnvelope)
	res.add("wire.allocs_per_roundtrip", "count", rp.AllocsPerRoundtrip)

	res.add("hierarchy.msgs_per_update", "count", class(prefix, ClassUpdate).Msgs)
	res.add("hierarchy.msgs_per_handover", "count", class(prefix, ClassHandover).Msgs)
	res.add("hierarchy.msgs_per_posq", "count", class(prefix, ClassPosQ).Msgs)
	res.add("hierarchy.msgs_per_rangeq", "count", class(prefix, ClassRangeQ).Msgs)
	res.add("hierarchy.msgs_per_nnq", "count", class(prefix, ClassNNQ).Msgs)
	res.add("hierarchy.hops_per_posq", "count", class(prefix, ClassPosQ).FwdHops)
	var total, rootBusy, leafMax float64
	leaves := make(map[msg.NodeID]bool, len(w.leaves))
	for _, l := range w.leaves {
		leaves[l] = true
	}
	for id, self := range rep.NodeSelfUS {
		total += self
		switch {
		case id == w.dep.Root():
			rootBusy = self
		case leaves[id] && self > leafMax:
			leafMax = self
		}
	}
	if total > 0 {
		rootBusy, leafMax = rootBusy/total, leafMax/total
	}
	res.add("hierarchy.root_busy_share", "ratio", rootBusy)
	res.add("hierarchy.leaf_busy_max_share", "ratio", leafMax)

	res.add("server.update_self_us", "us", upd.ServerSelfUS)
	res.add("server.handover_self_us", "us", hov.ServerSelfUS)
	res.add("server.posq_self_us", "us", posq.ServerSelfUS)
	res.add("server.rangeq_self_us", "us", rq.ServerSelfUS)
	res.add("server.nnq_self_us", "us", nnq.ServerSelfUS)
	res.add("server.rangeq_slowest_leaf_us", "us", rq.SlowestLeafUS)
	res.add("server.pos_cache_hit_ratio", "ratio", ratio(named["pos_query_cache_pos"], named["pos_query_seen"]))
	res.add("server.agent_cache_hit_ratio", "ratio", ratio(named["pos_query_cache_agent"],
		named["pos_query_cache_agent"]+named["pos_query_cache_agent_miss"]+named["pos_query_remote"]))
	res.add("server.updates_deduped", "count", float64(named["updates_deduped"]))
	res.add("server.event_self_us", "us", upd.EventSelfUS)
	res.add("server.event_notifications", "count", float64(named["event_notifications"]))
	res.add("server.event_notify_coalesced", "count", float64(named["event_notify_coalesced"]))
	res.add("server.event_notify_dropped", "count", float64(named["event_notify_dropped"]))
	res.add("server.event_delta_overflow", "count", float64(named["event_delta_overflow"]))

	res.add("store.put_us", "us", rp.PutUS)
	res.add("store.get_us", "us", rp.GetUS)
	res.add("store.search_us", "us", rp.SearchUS)
	res.add("store.nearest_us", "us", rp.NearestUS)
	res.add("store.pipeline_handoff_ratio", "ratio", ratio(counts.PipelineHandoffs, counts.PipelineOps))
	res.add("store.shard_contended_ratio", "ratio", ratio(counts.ShardContended, counts.ShardOps))
	res.add("store.wal_bytes_per_update", "B", rp.WALBytesPerUpdate)
	res.add("store.disk_bytes_per_update", "B", rp.DiskBytesPerUpdate)
	res.add("store.space_bytes_per_object", "B", rp.SpaceBytesPerObject)
	res.add("store.run_probes_per_get", "count", rp.RunProbesPerGet)
	res.add("store.bloom_skip_ratio", "ratio", rp.BloomSkipRatio)
	res.add("store.flushes", "count", rp.Flushes)
	res.add("store.compactions", "count", rp.Compactions)
	res.add("store.maintain_busy_ms", "ms", rp.MaintainBusyMS)
	res.add("store.put_stall_p99_us", "us", rp.PutStallP99US)
	res.add("store.recover_ms", "ms", rp.RecoverMS)

	res.add("spatial.insert_us", "us", rp.InsertUS)
	res.add("spatial.search_us", "us", rp.IndexSearchUS)
	res.add("spatial.nearest_us", "us", rp.IndexNearestUS)
	res.add("spatial.results_per_search", "count", rp.ResultsPerSearch)
	res.add("spatial.rectindex_stab_us", "us", rp.StabUS)

	res.add("loadgen.late_p99_ms", "ms", Percentile(paced.Late, 0.99))
	res.add("loadgen.trace_overhead_ratio", "ratio", safeDiv(solo.OpsPerSec(), traced.OpsPerSec()))
	if d := counts.Tier; d.Flushes+d.Compactions+d.BloomHits > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("live tiers over the paced phase: %d flushes, %d compactions, %d run probes, %d bloom skips",
			d.Flushes, d.Compactions, d.BloomHits, d.BloomMisses))
	}
}

// classSummary lists every class's sample count, median and 99th
// percentile in a phase.
func classSummary(p *Phase) string {
	out := "latency by class:"
	for c := Class(0); c < NumClasses; c++ {
		if ns := p.Lat[c]; len(ns) > 0 {
			out += fmt.Sprintf(" %s n=%d p50=%.4f p99=%.4f ms;", ClassNames[c], len(ns), Percentile(ns, 0.5), Percentile(ns, 0.99))
		}
	}
	return out
}

// checkNote says how many answers the checks looked at.
func (w *World) checkNote() string {
	var pos, ranges, nns, skipped int
	for _, cn := range w.conns {
		pos += cn.posCheck
		ranges += cn.checkedRange
		nns += cn.checkedNN
		skipped += cn.ambiguousSkips
	}
	return fmt.Sprintf("answer checks: %d position answers, %d range and %d neighbour answers compared with a scan of the ground truth (%d returned objects skipped as updated mid-query)",
		pos, ranges, nns, skipped)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
