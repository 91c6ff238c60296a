// Package locsvc is a large-scale location service for mobile objects,
// reproducing Leonhardi & Rothermel, "Architecture of a Large-scale
// Location Service" (TR 2001/01, University of Stuttgart; ICDCS 2002).
//
// The service tracks the geographic positions of mobile objects with
// explicit worst-case accuracy and answers three query types:
//
//   - position queries — the location descriptor of one object,
//   - range queries — all objects inside a polygon, filtered by a required
//     accuracy and a fractional-overlap threshold, and
//   - nearest-neighbor queries — the object closest to a position together
//     with the set of "near" alternatives.
//
// It is implemented by a hierarchy of location servers: leaf servers act as
// agents holding sighting records in a main-memory database (spatial index
// plus object-id hash index); non-leaf servers hold forwarding references
// that form a root-to-agent path per object. Handovers move tracking
// responsibility as objects cross service-area boundaries, always through
// the lowest common ancestor of the old and the new agent, which re-points
// the path before the old agent lets go. Three optional leaf caches
// shortcut the tree for queries: position descriptors and agents for
// position queries, leaf service areas for range-query fan-out. The paper's
// leaf-to-leaf handover through the area cache is not implemented: it
// answered before the tree was repaired, and queries dead-ended meanwhile.
//
// # Quick start
//
//	svc, err := locsvc.NewLocal(locsvc.LocalConfig{
//		Area:   locsvc.R(0, 0, 1500, 1500), // meters
//		Levels: []locsvc.Level{{Rows: 2, Cols: 2}},
//	})
//	if err != nil { ... }
//	defer svc.Close()
//
//	c, err := svc.NewClientAt("phone-1", locsvc.Pt(100, 100))
//	obj, err := c.Register(ctx, locsvc.Sighting{
//		OID: "taxi-7", T: time.Now(), Pos: locsvc.Pt(100, 100), SensAcc: 5,
//	}, 10, 50, 14)
//	_ = obj.Update(ctx, ...)
//	ld, err := c.PosQuery(ctx, "taxi-7")
//
// See the examples/ directory for complete scenarios. The mapping between
// this code base and the paper is in the package comments: internal/core
// (the service model of Section 3), internal/store (data storage, Section
// 5) and internal/server (the algorithms of Section 6).
package locsvc

import (
	"fmt"
	"path/filepath"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/msg"
	"locsvc/internal/server"
	"locsvc/internal/store"
	"locsvc/internal/transport"
)

// Core model types, re-exported for the public API.
type (
	// OID identifies a tracked object.
	OID = core.OID
	// Sighting is one position report.
	Sighting = core.Sighting
	// LocationDescriptor is a position plus worst-case accuracy.
	LocationDescriptor = core.LocationDescriptor
	// Entry is one (object, descriptor) query-result pair.
	Entry = core.Entry
	// Area is a convex query or service area.
	Area = core.Area
	// Point is a position in the local metric plane.
	Point = geo.Point
	// Rect is an axis-aligned rectangle.
	Rect = geo.Rect
	// LatLon is a WGS84 geographic coordinate.
	LatLon = geo.LatLon
	// Projection converts LatLon to the local plane.
	Projection = geo.Projection
	// Client issues service operations through an entry server.
	Client = client.Client
	// TrackedObject is the handle of one registered object.
	TrackedObject = client.TrackedObject
	// NeighborResult is a nearest-neighbor answer.
	NeighborResult = client.NeighborResult
	// ClientOptions configure a Client.
	ClientOptions = client.Options
	// Level describes one hierarchy level's grid fan-out.
	Level = hierarchy.Level
	// NodeID names a node on the service network.
	NodeID = msg.NodeID
)

// Re-exported service model errors.
var (
	ErrNotFound   = core.ErrNotFound
	ErrAccuracy   = core.ErrAccuracy
	ErrOutOfArea  = core.ErrOutOfArea
	ErrBadRequest = core.ErrBadRequest
)

// Pt builds a Point.
func Pt(x, y float64) Point { return geo.Pt(x, y) }

// R builds a Rect from two corners.
func R(x0, y0, x1, y1 float64) Rect { return geo.R(x0, y0, x1, y1) }

// AreaFromRect converts a Rect into an Area.
func AreaFromRect(r Rect) Area { return core.AreaFromRect(r) }

// AreaFromPoints builds the convex query area spanned by corner points.
func AreaFromPoints(points ...Point) Area { return core.AreaFromPoints(points) }

// TierConfig enables and tunes tiered (LSM) sighting storage
// (LocalConfig.Tiering); see store.TierConfig for the knobs and their
// defaults.
type TierConfig = store.TierConfig

// LocalConfig configures an in-process deployment of the service.
type LocalConfig struct {
	// Area is the root service area in meters.
	Area Rect
	// Levels describes the hierarchy below the root; empty means a
	// single server.
	Levels []Level
	// AchievableAcc is the best accuracy the leaves' sensor
	// infrastructure sustains (default 10 m).
	AchievableAcc float64
	// SightingTTL enables soft-state expiry of silent objects; a leaf
	// collects an expired object at its next janitor tick.
	SightingTTL time.Duration
	// JanitorInterval overrides the leaves' janitor cadence — the tick
	// that collects expired visitors, maintains the storage tiers and
	// compacts grown WAL segments. Zero picks a default from the enabled
	// features (SightingTTL/4; else 1m with a sighting WAL; at most 5s
	// with Tiering).
	JanitorInterval time.Duration
	// Shards partitions each leaf's sighting store into that many
	// independently locked shards keyed by object id, so concurrent
	// updates scale across cores; 0 or 1 means one shard, negative
	// counts are rejected. A leaf's WAL directory, once written, pins its
	// count.
	Shards int
	// Tiering turns each leaf's sighting store into a two-tier LSM:
	// the in-memory shards hold only the recent tail (the memtable
	// budget) and older versions live in immutable sorted runs beside
	// the leaf's sighting log segments, so a leaf can track far more
	// objects than fit in RAM and recovery replays only the short log
	// tail. Requires WALDir; NewLocal refuses Tiering without it. Zero
	// fields take the documented defaults.
	Tiering *TierConfig
	// WALDir enables durable server state. Every server persists its
	// visitor records (paper Section 5: an inner server's forwarding
	// paths, a leaf's registrations) to <dir>/<id>-visitors.wal, and
	// every leaf additionally keeps one
	// durable log segment per sighting shard under <dir>/<id>-sightings/,
	// replayed in parallel on deployment. Restarting a Service on the
	// same WALDir therefore restores tracked objects, their forwarding
	// paths and their last positions — queries answer immediately,
	// before any device re-reports. Empty keeps all state in memory.
	WALDir string
	// WALSync fsyncs every WAL append (machine-crash durability instead
	// of process-crash durability).
	WALSync bool
	// EnableCaches turns on all three leaf caches of Section 6.5. They
	// serve queries only: a handover still climbs to the lowest common
	// ancestor of the old and the new agent.
	EnableCaches bool
	// HopLatency delays every message, modelling network hops.
	HopLatency time.Duration
}

// Service is a running in-process location service.
type Service struct {
	net *transport.Inproc
	dep *hierarchy.Deployment
}

// NewLocal deploys a complete location-server hierarchy in-process. This is
// the primary entry point for simulations, examples and tests; production
// deployments run one server per process via cmd/lsd over UDP.
func NewLocal(cfg LocalConfig) (*Service, error) {
	if cfg.Area.Empty() {
		return nil, fmt.Errorf("%w: empty service area", core.ErrBadRequest)
	}
	opts := transport.InprocOptions{}
	if cfg.HopLatency > 0 {
		opts.Latency = func(_, _ msg.NodeID) time.Duration { return cfg.HopLatency }
	}
	shards, err := store.NormalizeShards(cfg.Shards)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrBadRequest, err)
	}
	if cfg.Tiering != nil && cfg.WALDir == "" {
		return nil, fmt.Errorf("%w: Tiering requires WALDir (the runs live in each leaf's sighting log directory)", core.ErrBadRequest)
	}
	net := transport.NewInproc(opts)
	spec := hierarchy.Spec{RootArea: cfg.Area, Levels: cfg.Levels}
	base := server.Options{
		AchievableAcc:    cfg.AchievableAcc,
		SightingTTL:      cfg.SightingTTL,
		JanitorInterval:  cfg.JanitorInterval,
		Shards:           shards,
		EnableAreaCache:  cfg.EnableCaches,
		EnableAgentCache: cfg.EnableCaches,
		EnablePosCache:   cfg.EnableCaches,
	}
	var walOpts []store.FileWALOption
	if cfg.WALSync {
		walOpts = append(walOpts, store.WithSync())
	}
	var customize func(store.ConfigRecord, server.Options) (server.Options, error)
	if cfg.WALDir != "" {
		customize = func(rec store.ConfigRecord, o server.Options) (server.Options, error) {
			vw, err := store.OpenFileWAL(filepath.Join(cfg.WALDir, rec.ID+"-visitors.wal"), walOpts...)
			if err != nil {
				return o, err
			}
			o.WAL = vw
			if rec.IsLeaf() {
				sw, err := store.OpenShardedWAL(filepath.Join(cfg.WALDir, rec.ID+"-sightings"), shards, walOpts...)
				if err != nil {
					vw.Close()
					return o, err
				}
				o.SightingWAL = sw
				o.Tiering = cfg.Tiering
			}
			return o, nil
		}
	}
	dep, err := hierarchy.DeployWith(net, spec, base, customize)
	if err != nil {
		net.Close()
		return nil, err
	}
	return &Service{net: net, dep: dep}, nil
}

// NewClientAt attaches a client whose entry server is the leaf responsible
// for position p — the paper's "leaf location server close-by".
func (s *Service) NewClientAt(id string, p Point) (*Client, error) {
	return s.NewClientAtWith(id, p, ClientOptions{})
}

// NewClientAtWith is NewClientAt with explicit client options.
func (s *Service) NewClientAtWith(id string, p Point, opts ClientOptions) (*Client, error) {
	entry, ok := s.dep.LeafFor(p)
	if !ok {
		return nil, fmt.Errorf("%w: %v outside the service area", core.ErrOutOfArea, p)
	}
	return client.New(s.net, msg.NodeID(id), entry, opts)
}

// EntryFor returns the id of the leaf server responsible for p.
func (s *Service) EntryFor(p Point) (NodeID, bool) { return s.dep.LeafFor(p) }

// Leaves returns the ids of all leaf servers.
func (s *Service) Leaves() []NodeID { return s.dep.Leaves() }

// Close shuts down every server and the network.
func (s *Service) Close() error {
	err := s.dep.Close()
	s.net.Close()
	return err
}
