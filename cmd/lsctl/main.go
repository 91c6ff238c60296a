// Command lsctl is a command-line client for a UDP deployment started with
// lsd. It speaks to an entry server named in the shared topology file.
//
//	lsctl -topology ls.json -entry r.0 register -oid taxi-1 -x 100 -y 100
//	lsctl -topology ls.json -entry r.0 update   -oid taxi-1 -x 140 -y 100
//	lsctl -topology ls.json -entry r.3 pos      -oid taxi-1
//	lsctl -topology ls.json -entry r.0 range    -x0 0 -y0 0 -x1 400 -y1 400
//	lsctl -topology ls.json -entry r.0 nearest  -x 120 -y 100
//	lsctl -topology ls.json -entry r.0 dereg    -oid taxi-1
//	lsctl -topology ls.json -entry r.0 stats
//
// stats prints the entry server's diagnostic snapshot: visitor and
// sighting counts, the sighting store's shard layout (occupancy and
// lock-contention counters per shard, plus the update pipeline's
// handoffs) and the metrics registry. Servers started by lsd share
// one registry between the server and its UDP transport, so the snapshot
// includes the wire-level series (wire_bytes_in/out, wire_datagrams_in/out,
// wire_decode_errors, wire_oversize_dropped) next to the protocol counters.
//
// register keeps the process alive with -keep to continue serving accuracy
// notifications and recovery update requests; otherwise it exits after the
// acknowledgement (the soft-state TTL eventually removes silent objects).
//
// -retries > 1 arms a client-side retry budget for every operation: a
// timed-out request is re-sent with exponential backoff and full jitter
// (seeded by -retry-backoff, capped at -retry-max-backoff), each attempt
// bounded by -retry-timeout. Registrations and updates carry a per-client
// sequence number, so a retried duplicate is applied exactly once by the
// receiving leaf. Range and nearest queries may come back partial when part
// of the hierarchy is unreachable; lsctl prints the degraded marking and
// the dark servers so "no results" and "servers were down" stay
// distinguishable.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
	"locsvc/internal/transport"
)

func main() {
	var (
		topoPath  = flag.String("topology", "ls.json", "topology file of the deployment")
		entry     = flag.String("entry", "", "entry server id (e.g. r.0)")
		host      = flag.String("host", "127.0.0.1", "local host to bind the client socket on")
		timeout   = flag.Duration("timeout", 5*time.Second, "operation timeout")
		batchMax  = flag.Int("batch-max", 1, "coalesce up to this many outbound envelopes per destination into one datagram (1, the default, is a cap of one: each envelope leaves alone)")
		retries   = flag.Int("retries", 1, "total attempts per operation (> 1 enables retries with backoff; duplicates are deduplicated server-side)")
		retryBase = flag.Duration("retry-backoff", 20*time.Millisecond, "base of the exponential retry backoff (full jitter)")
		retryMax  = flag.Duration("retry-max-backoff", time.Second, "cap on one retry backoff draw")
		retryTry  = flag.Duration("retry-timeout", 0, "per-attempt deadline (0 leaves the operation timeout in charge)")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}
	if *entry == "" {
		fatal(fmt.Errorf("-entry is required"))
	}

	nodes, err := loadNodes(*topoPath)
	if err != nil {
		fatal(err)
	}
	network := transport.NewUDPWithOptions(transport.UDPOptions{
		BatchMax:    *batchMax,
		CallTimeout: *timeout,
	})
	defer network.Close()
	for nid, addr := range nodes {
		if err := network.AddRoute(msg.NodeID(nid), addr); err != nil {
			fatal(err)
		}
	}
	// The client's node id is its own socket address, so every server in
	// the deployment can answer it without directory distribution.
	cl, err := client.New(autoNet{network, *host}, "", msg.NodeID(*entry), client.Options{
		Timeout: *timeout,
		Retry: transport.RetryPolicy{
			MaxAttempts:   *retries,
			BaseBackoff:   *retryBase,
			MaxBackoff:    *retryMax,
			PerTryTimeout: *retryTry,
		},
		OnAccChange: func(oid core.OID, acc float64) {
			fmt.Printf("notification: accuracy for %s is now %.1f m\n", oid, acc)
		},
	})
	if err != nil {
		fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout+time.Second)
	defer cancel()

	cmd := flag.Arg(0)
	sub := flag.NewFlagSet(cmd, flag.ExitOnError)
	oid := sub.String("oid", "", "object id")
	x := sub.Float64("x", 0, "x coordinate (m)")
	y := sub.Float64("y", 0, "y coordinate (m)")
	x0 := sub.Float64("x0", 0, "area min x")
	y0 := sub.Float64("y0", 0, "area min y")
	x1 := sub.Float64("x1", 0, "area max x")
	y1 := sub.Float64("y1", 0, "area max y")
	desAcc := sub.Float64("desacc", 10, "desired accuracy (m)")
	minAcc := sub.Float64("minacc", 100, "minimal acceptable accuracy (m)")
	reqAcc := sub.Float64("reqacc", 100, "required accuracy for queries (m)")
	overlap := sub.Float64("overlap", 0.5, "required overlap degree (0,1]")
	nearQual := sub.Float64("nearqual", 0, "near-neighbor qualification distance (m)")
	speed := sub.Float64("speed", 3, "object max speed (m/s)")
	keep := sub.Bool("keep", false, "register: keep running to serve notifications")
	if err := sub.Parse(flag.Args()[1:]); err != nil {
		fatal(err)
	}

	switch cmd {
	case "register":
		need(*oid, "-oid")
		obj, err := cl.Register(ctx, sight(*oid, *x, *y), *desAcc, *minAcc, *speed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("registered %s: agent=%s offeredAcc=%.1f m\n", *oid, obj.Agent(), obj.OfferedAcc())
		if *keep {
			fmt.Println("serving notifications; ctrl-c to exit")
			select {}
		}
	case "update":
		need(*oid, "-oid")
		// A fresh handle: re-register is idempotent for an existing
		// object (records are replaced), then update.
		obj, err := cl.Register(ctx, sight(*oid, *x, *y), *desAcc, *minAcc, *speed)
		if err != nil {
			fatal(err)
		}
		if err := obj.Update(ctx, sight(*oid, *x, *y)); err != nil {
			fatal(err)
		}
		fmt.Printf("updated %s to (%.1f, %.1f); agent=%s\n", *oid, *x, *y, obj.Agent())
	case "pos":
		need(*oid, "-oid")
		ld, err := cl.PosQuery(ctx, core.OID(*oid))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: pos=(%.1f, %.1f) acc=%.1f m\n", *oid, ld.Pos.X, ld.Pos.Y, ld.Acc)
	case "range":
		res, err := cl.RangeQueryFull(ctx, core.AreaFromRect(geo.R(*x0, *y0, *x1, *y1)), *reqAcc, *overlap)
		if err != nil {
			fatal(err)
		}
		if res.Partial {
			fmt.Printf("PARTIAL result — unreachable: %v\n", res.Unreachable)
		}
		fmt.Printf("%d object(s):\n", len(res.Objs))
		for _, e := range res.Objs {
			fmt.Printf("  %s: pos=(%.1f, %.1f) acc=%.1f m\n", e.OID, e.LD.Pos.X, e.LD.Pos.Y, e.LD.Acc)
		}
	case "nearest":
		res, err := cl.NeighborQuery(ctx, geo.Pt(*x, *y), *reqAcc, *nearQual)
		if err != nil {
			fatal(err)
		}
		if res.Partial {
			fmt.Printf("PARTIAL result — unreachable: %v\n", res.Unreachable)
		}
		fmt.Printf("nearest: %s at (%.1f, %.1f), guaranteed min distance %.1f m\n",
			res.Nearest.OID, res.Nearest.LD.Pos.X, res.Nearest.LD.Pos.Y, res.GuaranteedMinDist)
		for _, e := range res.Near {
			fmt.Printf("  near: %s at (%.1f, %.1f)\n", e.OID, e.LD.Pos.X, e.LD.Pos.Y)
		}
	case "stats":
		res, err := cl.Diag(ctx)
		if err != nil {
			fatal(err)
		}
		role := "inner"
		if res.IsLeaf {
			role = "leaf"
		}
		fmt.Printf("server %s (%s): %d visitors, %d sightings\n", res.Server, role, res.Visitors, res.Sightings)
		if len(res.Shards) > 0 {
			fmt.Printf("sighting shards: %d\n", len(res.Shards))
			fmt.Printf("  %-6s %10s %12s %12s\n", "shard", "records", "writeops", "contended")
			for i, sh := range res.Shards {
				fmt.Printf("  %-6d %10d %12d %12d\n", i, sh.Len, sh.Ops, sh.Contended)
			}
			fmt.Printf("pipeline: %d updates, %d handoffs (queued behind a lane leader)\n",
				res.PipelineOps, res.PipelineHandoffs)
		}
		if t := res.Tier; t != nil {
			state := "warming (WAL tail replaying)"
			if t.Warm {
				state = "warm"
			}
			fmt.Printf("tiered storage: %s\n", state)
			fmt.Printf("  memtables: %d bytes resident\n", t.MemtableBytes)
			fmt.Printf("  runs: %d files, %d bytes on disk, %d bytes resident (metadata and spatial columns: position and id per live record)\n",
				t.Runs, t.RunBytes, t.MetaBytes)
			fmt.Printf("  disk records: %d (%d live)\n", t.DiskRecords, t.DiskLive)
			fmt.Printf("  flushes: %d, compactions: %d (backlog %d shard(s))\n",
				t.Flushes, t.Compactions, t.Backlog)
			fmt.Printf("  bloom probes: %d admitted, %d skipped\n", t.BloomHits, t.BloomMisses)
		}
		if res.EventSubs > 0 || res.EventCoordSubs > 0 {
			fmt.Printf("event subscriptions: %d installed, %d coordinated\n",
				res.EventSubs, res.EventCoordSubs)
		}
		if res.Metrics != "" {
			fmt.Printf("metrics:\n")
			for _, line := range strings.Split(strings.TrimRight(res.Metrics, "\n"), "\n") {
				fmt.Printf("  %s\n", line)
			}
		}
	case "dereg":
		need(*oid, "-oid")
		obj, err := cl.Register(ctx, sight(*oid, *x, *y), *desAcc, *minAcc, *speed)
		if err != nil {
			fatal(err)
		}
		if err := obj.Deregister(ctx); err != nil {
			fatal(err)
		}
		fmt.Printf("deregistered %s\n", *oid)
	default:
		usage()
	}
}

// autoNet attaches clients under their own socket address as node id.
type autoNet struct {
	udp  *transport.UDP
	host string
}

// Attach implements transport.Network, ignoring the suggested id.
func (a autoNet) Attach(_ msg.NodeID, h transport.Handler) (transport.Node, error) {
	return a.udp.AttachAuto(a.host, h)
}

// Close implements transport.Network.
func (a autoNet) Close() error { return a.udp.Close() }

func sight(oid string, x, y float64) core.Sighting {
	return core.Sighting{OID: core.OID(oid), T: time.Now(), Pos: geo.Pt(x, y), SensAcc: 5}
}

func need(v, flagName string) {
	if v == "" {
		fatal(fmt.Errorf("%s is required", flagName))
	}
}

func loadNodes(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading topology: %w", err)
	}
	var t struct {
		Nodes map[string]string `json:"nodes"`
	}
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("parsing topology: %w", err)
	}
	return t.Nodes, nil
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: lsctl -topology ls.json -entry <server> <register|update|pos|range|nearest|dereg|stats> [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lsctl:", err)
	os.Exit(1)
}
