// Command lsd runs one location server of a distributed deployment over
// UDP — the production topology of the paper's prototype (Fig. 8: one
// machine per server).
//
// A deployment is described by a topology file shared by all servers:
//
//	lsd -gen -topology ls.json -area 1500 -fanout 2 -port 7000
//
// generates a topology (root + 2×2 leaves, service area 1500 m × 1500 m,
// ports 7000…). Then each server is started with:
//
//	lsd -topology ls.json -id r
//	lsd -topology ls.json -id r.0 -wal /var/lib/lsd/r0.wal \
//	    -shards 8 -swal /var/lib/lsd/r0-sightings
//	...
//
// Flags -acc, -ttl and -caches tune the leaf behaviour; -shards partitions
// the leaf's sighting store, -swal gives the store durable per-shard logs
// that are replayed in parallel at startup (a -swal directory that already
// holds history keeps the shard count it was written with, whatever
// -shards says). Every WAL append reaches the OS before the change it logs
// is acknowledged, so a killed process loses nothing acknowledged; -fsync
// adds an fsync to each append, so a machine crash loses nothing either.
// -tier layers tiered (LSM)
// storage over -swal: the in-memory shards keep only the recent tail
// (bounded by -tier-memtable-bytes) while older versions live in
// immutable sorted runs beside the WAL segments, so a leaf can track far
// more objects than fit in RAM and a restart replays only the short WAL
// tail instead of the full history. A killed leaf is restarted with the
// same -wal, -swal and -tier flags and comes back from its own files with
// every acknowledged update.
//
// -batch-max caps the outbound envelopes headed for the same peer that
// ride one UDP datagram; the default 1 is a cap of one, every envelope its
// own datagram, sent by the goroutine that produced it. No envelope waits
// for a timer: one sent while the server is idle leaves at once, alone,
// and envelopes share a datagram only when they are produced faster than
// they can be sent, so batches grow with load. A batch of one is the
// legacy wire frame byte-for-byte, so servers with any caps interoperate
// freely; batch traffic shows up in the wire_batches_in/out and
// wire_envelopes_per_batch metrics, failed socket writes in
// wire_write_errors. The socket asks for 4 MiB of kernel
// buffer each way; raise net.core.rmem_max/wmem_max if the host caps them
// lower, or bursts of small datagrams are dropped at 208 KiB.
//
// -breaker-threshold ≥ 1 arms per-peer circuit breakers on this server's
// outbound calls: after that many consecutive swept timeouts toward one
// peer the breaker opens and calls to it fail fast (no datagram, no
// in-flight slot) until -breaker-cooldown elapses, when a single probe
// call half-opens it; the probe's outcome closes or reopens the breaker.
// Breaker state is exported as peer_state.<this>-><peer> gauges (0 closed,
// 1 open, 2 half-open) next to the wire_breaker_open fail-fast counter,
// and coordinators translate open breakers into degraded partial query
// answers instead of waiting out timeouts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/metrics"
	"locsvc/internal/msg"
	"locsvc/internal/server"
	"locsvc/internal/store"
	"locsvc/internal/transport"
)

// Topology is the shared deployment description.
type Topology struct {
	RootArea [4]float64        `json:"rootArea"` // x0, y0, x1, y1 (meters)
	Levels   []hierarchy.Level `json:"levels"`
	// Nodes maps server ids to UDP addresses.
	Nodes map[string]string `json:"nodes"`
}

func main() {
	var (
		topoPath     = flag.String("topology", "ls.json", "topology file shared by all servers")
		id           = flag.String("id", "", "server id to run (e.g. r, r.0)")
		gen          = flag.Bool("gen", false, "generate a topology file and exit")
		area         = flag.Float64("area", 1500, "side of the square root service area in meters (with -gen)")
		fanout       = flag.Int("fanout", 2, "grid fan-out per level: each area splits fanout x fanout (with -gen)")
		depth        = flag.Int("depth", 1, "number of hierarchy levels below the root (with -gen)")
		host         = flag.String("host", "127.0.0.1", "host for generated addresses (with -gen)")
		port         = flag.Int("port", 7000, "first port for generated addresses (with -gen)")
		walPath      = flag.String("wal", "", "visitor-record WAL path (persistent forwarding paths; a leaf's registrations)")
		swalDir      = flag.String("swal", "", "sightingDB WAL directory: one durable log segment per shard, replayed in parallel at startup (leaves only)")
		shards       = flag.Int("shards", 1, "sighting-store shards on a leaf (independently locked, keyed by object id); an existing -swal directory keeps its own count")
		tier         = flag.Bool("tier", false, "tiered (LSM) sighting storage: shards become memtables, older versions live in sorted runs beside the -swal segments, recovery replays only the WAL tail (leaves with -swal only)")
		tierMemBytes = flag.Int64("tier-memtable-bytes", 64<<20, "total memtable budget across shards before runs are flushed to disk (with -tier)")
		tierMaxRuns  = flag.Int("tier-max-runs", 4, "per-shard run-file count beyond which the janitor compacts (with -tier)")
		tierBloom    = flag.Int("tier-bloom-bits", 10, "bloom-filter bits per key in each run file (with -tier)")
		fsync        = flag.Bool("fsync", false, "fsync every WAL append: without it a killed process loses no acknowledged change, with it a machine crash loses none either")
		acc          = flag.Float64("acc", 10, "achievable accuracy of this leaf in meters")
		ttl          = flag.Duration("ttl", 5*time.Minute, "soft-state TTL for sighting records (0 disables)")
		caches       = flag.Bool("caches", true, "enable the Section 6.5 leaf caches for position and range queries (handovers always climb to the lowest common ancestor)")
		restore      = flag.Bool("restore", false, "request updates from persisted visitors at startup")
		batchMax     = flag.Int("batch-max", 1, "coalesce up to this many outbound envelopes per destination into one datagram (1, the default, is a cap of one: each envelope leaves alone)")
		brkThreshold = flag.Int("breaker-threshold", 3, "consecutive call timeouts toward one peer that open its circuit breaker (0 disables breakers)")
		brkCooldown  = flag.Duration("breaker-cooldown", time.Second, "how long an open breaker refuses calls before one probe call may half-open it")
	)
	flag.Parse()

	if *gen {
		if err := generate(*topoPath, *area, *fanout, *depth, *host, *port); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *topoPath)
		return
	}
	if *id == "" {
		fatal(fmt.Errorf("-id is required (or use -gen)"))
	}

	topo, err := loadTopology(*topoPath)
	if err != nil {
		fatal(err)
	}
	spec := hierarchy.Spec{
		RootArea: geo.R(topo.RootArea[0], topo.RootArea[1], topo.RootArea[2], topo.RootArea[3]),
		Levels:   topo.Levels,
	}
	configs, err := hierarchy.Build(spec)
	if err != nil {
		fatal(err)
	}
	var cfg store.ConfigRecord
	found := false
	for _, c := range configs {
		if c.ID == *id {
			cfg, found = c, true
			break
		}
	}
	if !found {
		fatal(fmt.Errorf("server %q not in topology (have %d servers)", *id, len(configs)))
	}
	bind, ok := topo.Nodes[*id]
	if !ok {
		fatal(fmt.Errorf("no address for %q in topology", *id))
	}

	// One registry shared by the server and its UDP network: the
	// transport's wire_bytes_in/out and decode-error counters ride along
	// in the server's DiagRes snapshot, so lsctl stats shows wire-level
	// traffic next to the protocol counters.
	reg := metrics.NewRegistry()
	network := transport.NewUDPWithOptions(transport.UDPOptions{
		Metrics:          reg,
		BatchMax:         *batchMax,
		BreakerThreshold: *brkThreshold,
		BreakerCooldown:  *brkCooldown,
	})
	for nid, addr := range topo.Nodes {
		if nid == *id {
			continue
		}
		if err := network.AddRoute(msg.NodeID(nid), addr); err != nil {
			fatal(err)
		}
	}

	nshards, err := store.NormalizeShards(*shards)
	if err != nil {
		fatal(err)
	}
	opts := server.Options{
		Metrics:          reg,
		AchievableAcc:    *acc,
		SightingTTL:      *ttl,
		Shards:           nshards,
		EnableAreaCache:  *caches,
		EnableAgentCache: *caches,
		EnablePosCache:   *caches,
	}
	var walOpts []store.FileWALOption
	if *fsync {
		walOpts = append(walOpts, store.WithSync())
	}
	if *walPath != "" {
		wal, werr := store.OpenFileWAL(*walPath, walOpts...)
		if werr != nil {
			fatal(werr)
		}
		opts.WAL = wal
	}
	if *swalDir != "" && cfg.IsLeaf() {
		swal, werr := store.OpenShardedWAL(*swalDir, nshards, walOpts...)
		if werr != nil {
			fatal(werr)
		}
		opts.SightingWAL = swal
	}
	if *tier && cfg.IsLeaf() {
		if opts.SightingWAL == nil {
			fatal(fmt.Errorf("-tier requires -swal (the run files live in the WAL directory)"))
		}
		opts.Tiering = &store.TierConfig{
			MemtableBytes:   *tierMemBytes,
			MaxRuns:         *tierMaxRuns,
			BloomBitsPerKey: *tierBloom,
		}
	}

	// Attach on the configured address: server.New attaches via
	// Network.Attach, which binds an ephemeral port, so pre-bind the
	// route by wrapping Attach through AttachAddr.
	srv, err := server.New(cfg, core.AreaFromRect(spec.RootArea), boundNetwork{network, bind}, opts)
	if err != nil {
		fatal(err)
	}
	defer srv.Close()

	if *restore && cfg.IsLeaf() {
		n := srv.RestoreVisitors()
		fmt.Printf("requested updates from %d persisted visitors\n", n)
	}

	role := "leaf"
	if !cfg.IsLeaf() {
		role = "inner"
	}
	if cfg.IsRoot() {
		role = "root"
	}
	fmt.Printf("lsd: server %s (%s) serving %v on %s\n", cfg.ID, role, cfg.SA.Bounds(), bind)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("lsd: shutting down")
}

// boundNetwork makes server.New bind its node on a fixed address.
type boundNetwork struct {
	udp  *transport.UDP
	bind string
}

// Attach implements transport.Network.
func (b boundNetwork) Attach(id msg.NodeID, h transport.Handler) (transport.Node, error) {
	return b.udp.AttachAddr(id, b.bind, h)
}

// Close implements transport.Network.
func (b boundNetwork) Close() error { return b.udp.Close() }

func generate(path string, area float64, fanout, depth int, host string, firstPort int) error {
	if fanout < 1 || depth < 0 {
		return fmt.Errorf("invalid fanout/depth")
	}
	var levels []hierarchy.Level
	for i := 0; i < depth; i++ {
		levels = append(levels, hierarchy.Level{Rows: fanout, Cols: fanout})
	}
	spec := hierarchy.Spec{RootArea: geo.R(0, 0, area, area), Levels: levels}
	configs, err := hierarchy.Build(spec)
	if err != nil {
		return err
	}
	topo := Topology{
		RootArea: [4]float64{0, 0, area, area},
		Levels:   levels,
		Nodes:    make(map[string]string, len(configs)),
	}
	for i, cfg := range configs {
		topo.Nodes[cfg.ID] = fmt.Sprintf("%s:%d", host, firstPort+i)
	}
	data, err := json.MarshalIndent(topo, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func loadTopology(path string) (Topology, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Topology{}, fmt.Errorf("reading topology: %w", err)
	}
	var t Topology
	if err := json.Unmarshal(data, &t); err != nil {
		return Topology{}, fmt.Errorf("parsing topology: %w", err)
	}
	return t, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lsd:", err)
	os.Exit(1)
}
