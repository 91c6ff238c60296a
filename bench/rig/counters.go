package rig

// serverCounters are the per-server counters the layer metrics use, read
// through Deployment.Server(id).Metrics() and summed over all servers.
var serverCounters = []string{
	"pos_query_seen", "pos_query_local", "pos_query_cache_pos", "pos_query_cache_agent",
	"pos_query_cache_agent_miss", "pos_query_remote", "updates_deduped",
	"event_notifications", "event_notify_coalesced", "event_notify_dropped", "event_delta_overflow",
}

// wireCounters are the UDP network's counters (absent on Inproc, which
// never encodes or sends a datagram).
var wireCounters = []string{
	"wire_datagrams_out", "wire_envelopes_out", "wire_bytes_out",
	"wire_call_timeouts", "wire_retries", "wire_late_replies",
}

// TierCounts are the leaves' tier counters, summed.
type TierCounts struct {
	Flushes, Compactions, BloomHits, BloomMisses int64
}

// Counters is one reading of every count the layer metrics are built from.
// Readings are cumulative; Sub gives the counts of a phase.
type Counters struct {
	Named map[string]int64
	Tier  TierCounts
	// PipelineOps and PipelineHandoffs come from the leaves' update
	// pipelines, ShardOps and ShardContended from their sighting shards.
	PipelineOps, PipelineHandoffs, ShardOps, ShardContended int64
}

// Counters reads the deployment's counters.
func (w *World) Counters() (Counters, error) {
	c := Counters{Named: make(map[string]int64)}
	for _, srv := range w.dep.Servers {
		reg := srv.Metrics()
		for _, name := range serverCounters {
			c.Named[name] += reg.Counter(name).Value()
		}
	}
	if w.udpMet != nil {
		for _, name := range wireCounters {
			c.Named[name] = w.udpMet.Counter(name).Value()
		}
	}
	ds, err := w.diags()
	if err != nil {
		return c, err
	}
	for _, d := range ds {
		c.PipelineOps += d.PipelineOps
		c.PipelineHandoffs += d.PipelineHandoffs
		for _, sh := range d.Shards {
			c.ShardOps += sh.Ops
			c.ShardContended += sh.Contended
		}
		if t := d.Tier; t != nil {
			c.Tier.Flushes += t.Flushes
			c.Tier.Compactions += t.Compactions
			c.Tier.BloomHits += t.BloomHits
			c.Tier.BloomMisses += t.BloomMisses
		}
	}
	return c, nil
}

// Sub returns the counts accumulated since b was read.
func (a Counters) Sub(b Counters) Counters {
	out := Counters{
		Named: make(map[string]int64, len(a.Named)),
		Tier: TierCounts{
			Flushes:     a.Tier.Flushes - b.Tier.Flushes,
			Compactions: a.Tier.Compactions - b.Tier.Compactions,
			BloomHits:   a.Tier.BloomHits - b.Tier.BloomHits,
			BloomMisses: a.Tier.BloomMisses - b.Tier.BloomMisses,
		},
		PipelineOps:      a.PipelineOps - b.PipelineOps,
		PipelineHandoffs: a.PipelineHandoffs - b.PipelineHandoffs,
		ShardOps:         a.ShardOps - b.ShardOps,
		ShardContended:   a.ShardContended - b.ShardContended,
	}
	for k, v := range a.Named {
		out.Named[k] = v - b.Named[k]
	}
	return out
}

func ratio(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}
