// Package hierarchy constructs location-server trees: it splits a root
// service area into a regular grid per level (the paper's prototype divides
// a square area into quarters), produces the configuration records of every
// server, and deploys the resulting tree onto a transport network. A tree
// has one root server, and every other server has exactly one parent.
//
// Server ids are path labels: the root is "r", its children "r.0", "r.1",
// …, grandchildren "r.0.0" and so on, which keeps parent/child relations
// readable in logs and tests.
package hierarchy

import (
	"fmt"
	"strconv"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
	"locsvc/internal/server"
	"locsvc/internal/store"
	"locsvc/internal/transport"
)

// Level describes the fan-out of one hierarchy level as a rows × cols grid
// split of each service area on the level above.
type Level struct {
	Rows int
	Cols int
}

// Fanout returns the number of children each server on this level's parent
// gets.
func (l Level) Fanout() int { return l.Rows * l.Cols }

// Spec describes a hierarchy: the root service area and the grid split
// applied at every level. An empty Levels slice yields a single-server
// deployment (root == leaf).
type Spec struct {
	RootArea geo.Rect
	Levels   []Level
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.RootArea.Empty() {
		return fmt.Errorf("hierarchy: empty root area")
	}
	for i, l := range s.Levels {
		if l.Rows <= 0 || l.Cols <= 0 {
			return fmt.Errorf("hierarchy: level %d has grid %dx%d", i, l.Rows, l.Cols)
		}
	}
	return nil
}

// Build produces the configuration records for every server in the tree,
// parents before children.
func Build(spec Spec) ([]store.ConfigRecord, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var out []store.ConfigRecord
	build("r", "", spec.RootArea, spec.Levels, &out)
	// Validate every record: children must tile their parent.
	for _, c := range out {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("hierarchy: built invalid config: %w", err)
		}
	}
	return out, nil
}

// build appends the record for one server and recurses into its children.
func build(id, parent string, area geo.Rect, levels []Level, out *[]store.ConfigRecord) {
	rec := store.ConfigRecord{
		ID:     id,
		SA:     core.AreaFromRect(area),
		Parent: parent,
	}
	if len(levels) > 0 {
		cells := area.SplitGrid(levels[0].Rows, levels[0].Cols)
		rec.Children = make([]store.ChildRecord, len(cells))
		for i, cell := range cells {
			childID := id + "." + strconv.Itoa(i)
			rec.Children[i] = store.ChildRecord{ID: childID, SA: core.AreaFromRect(cell)}
		}
	}
	*out = append(*out, rec)
	if len(levels) > 0 {
		cells := area.SplitGrid(levels[0].Rows, levels[0].Cols)
		for i, cell := range cells {
			build(id+"."+strconv.Itoa(i), id, cell, levels[1:], out)
		}
	}
}

// Deployment is a running location-server tree on one network.
type Deployment struct {
	Spec    Spec
	Configs []store.ConfigRecord
	Servers map[msg.NodeID]*server.Server

	leaves []store.ConfigRecord
}

// DeployWith builds the tree for spec and starts one Server per config on
// the network. opts apply to every server unless customize, when non-nil,
// returns others: it receives each server's config record plus the shared
// base options and returns the options that server starts with — the seam
// for per-leaf concerns such as visitor WALs, per-shard sighting WALs, and
// per-leaf shard counts (a hot downtown leaf can run more shards while
// quiet leaves stay at one). An error from customize aborts the
// deployment.
func DeployWith(network transport.Network, spec Spec, opts server.Options, customize func(cfg store.ConfigRecord, base server.Options) (server.Options, error)) (*Deployment, error) {
	configs, err := Build(spec)
	if err != nil {
		return nil, err
	}
	rootArea := core.AreaFromRect(spec.RootArea)
	d := &Deployment{
		Spec:    spec,
		Configs: configs,
		Servers: make(map[msg.NodeID]*server.Server, len(configs)),
	}
	for _, cfg := range configs {
		srvOpts := opts
		if customize != nil {
			srvOpts, err = customize(cfg, opts)
			if err != nil {
				d.Close()
				return nil, fmt.Errorf("hierarchy: configuring %s: %w", cfg.ID, err)
			}
		}
		srv, err := server.New(cfg, rootArea, network, srvOpts)
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("hierarchy: deploying %s: %w", cfg.ID, err)
		}
		d.Servers[srv.ID()] = srv
		if cfg.IsLeaf() {
			d.leaves = append(d.leaves, cfg)
		}
	}
	return d, nil
}

// Root returns the root server's id, "r". Build emits parents before
// children, so the root is the first record.
func (d *Deployment) Root() msg.NodeID { return msg.NodeID(d.Configs[0].ID) }

// RootVisitorCount returns the root's visitor record count — the number of
// objects with complete forwarding paths.
func (d *Deployment) RootVisitorCount() int {
	if srv, ok := d.Servers[d.Root()]; ok {
		return srv.VisitorCount()
	}
	return 0
}

// Leaves returns the ids of all leaf servers in build order.
func (d *Deployment) Leaves() []msg.NodeID {
	out := make([]msg.NodeID, len(d.leaves))
	for i, cfg := range d.leaves {
		out[i] = msg.NodeID(cfg.ID)
	}
	return out
}

// LeafFor returns the leaf server responsible for position p — the entry
// server a client at p would use (the paper assumes a lookup service such
// as Jini provides this mapping; the deployment directory plays that role).
func (d *Deployment) LeafFor(p geo.Point) (msg.NodeID, bool) {
	for _, cfg := range d.leaves {
		if cfg.SA.Bounds().Contains(p) && cfg.SA.Contains(p) {
			return msg.NodeID(cfg.ID), true
		}
	}
	// Fall back to closed containment for boundary points.
	for _, cfg := range d.leaves {
		if cfg.SA.Contains(p) {
			return msg.NodeID(cfg.ID), true
		}
	}
	return "", false
}

// Close shuts every server down.
func (d *Deployment) Close() error {
	var first error
	for _, srv := range d.Servers {
		if err := srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
