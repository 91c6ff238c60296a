package hierarchy

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
	"locsvc/internal/server"
	"locsvc/internal/store"
	"locsvc/internal/transport"
)

func TestSpecValidate(t *testing.T) {
	good := Spec{RootArea: geo.R(0, 0, 100, 100), Levels: []Level{{2, 2}}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if err := (Spec{}).Validate(); err == nil {
		t.Error("empty root area accepted")
	}
	bad := Spec{RootArea: geo.R(0, 0, 1, 1), Levels: []Level{{0, 2}}}
	if err := bad.Validate(); err == nil {
		t.Error("zero-row level accepted")
	}
}

func TestNumServers(t *testing.T) {
	tests := []struct {
		levels []Level
		want   int
	}{
		{nil, 1},
		{[]Level{{2, 2}}, 5},          // the paper's testbed: root + 4
		{[]Level{{2, 2}, {2, 2}}, 21}, // + 16 leaves
		{[]Level{{1, 3}}, 4},
		{[]Level{{3, 3}, {2, 1}}, 1 + 9 + 18},
	}
	for _, tt := range tests {
		configs, err := Build(Spec{RootArea: geo.R(0, 0, 100, 100), Levels: tt.levels})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(configs); got != tt.want {
			t.Errorf("servers of %v = %d, want %d", tt.levels, got, tt.want)
		}
	}
}

func TestBuildStructure(t *testing.T) {
	spec := Spec{RootArea: geo.R(0, 0, 1500, 1500), Levels: []Level{{2, 2}}}
	configs, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 5 {
		t.Fatalf("built %d configs", len(configs))
	}
	root := configs[0]
	if root.ID != "r" || !root.IsRoot() || root.IsLeaf() {
		t.Errorf("root = %+v", root)
	}
	// Deployment.Root reads configs[0]: it must be the only root.
	roots := 0
	for _, cfg := range configs {
		if cfg.IsRoot() {
			roots++
		}
	}
	if roots != 1 {
		t.Errorf("%d records are roots, want 1", roots)
	}
	if len(root.Children) != 4 {
		t.Fatalf("root children = %d", len(root.Children))
	}
	for _, cfg := range configs[1:] {
		if cfg.Parent != "r" || !cfg.IsLeaf() {
			t.Errorf("leaf %+v", cfg)
		}
		if !strings.HasPrefix(cfg.ID, "r.") {
			t.Errorf("leaf id %q", cfg.ID)
		}
		if cfg.SA.Size() != 1500*1500/4 {
			t.Errorf("leaf %s area %v", cfg.ID, cfg.SA.Size())
		}
	}
}

func TestBuildDeepIDs(t *testing.T) {
	spec := Spec{RootArea: geo.R(0, 0, 800, 800), Levels: []Level{{2, 2}, {2, 2}}}
	configs, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]bool{}
	for _, c := range configs {
		byID[c.ID] = true
	}
	for _, want := range []string{"r", "r.0", "r.3", "r.0.0", "r.3.3", "r.2.1"} {
		if !byID[want] {
			t.Errorf("missing server %s", want)
		}
	}
	// Every leaf's parent must exist and list it as a child.
	parents := map[string]map[string]bool{}
	for _, c := range configs {
		kids := map[string]bool{}
		for _, ch := range c.Children {
			kids[ch.ID] = true
		}
		parents[c.ID] = kids
	}
	for _, c := range configs[1:] {
		if !parents[c.Parent][c.ID] {
			t.Errorf("%s not listed as child of %s", c.ID, c.Parent)
		}
	}
}

func TestDeployAndLeafFor(t *testing.T) {
	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()
	spec := Spec{RootArea: geo.R(0, 0, 1000, 1000), Levels: []Level{{2, 2}}}
	dep, err := Deploy(net, spec, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	if got := len(dep.Servers); got != 5 {
		t.Fatalf("deployed %d servers", got)
	}
	if got := dep.Leaves(); len(got) != 4 {
		t.Fatalf("leaves = %v", got)
	}
	if dep.Root() != "r" {
		t.Errorf("root = %s", dep.Root())
	}

	tests := []struct {
		p    geo.Point
		want string
	}{
		{geo.Pt(100, 100), "r.0"},
		{geo.Pt(900, 100), "r.1"},
		{geo.Pt(100, 900), "r.2"},
		{geo.Pt(900, 900), "r.3"},
		{geo.Pt(1000, 1000), "r.3"}, // outer corner
	}
	for _, tt := range tests {
		got, ok := dep.LeafFor(tt.p)
		if !ok || string(got) != tt.want {
			t.Errorf("LeafFor(%v) = %v/%v, want %v", tt.p, got, ok, tt.want)
		}
	}
	if _, ok := dep.LeafFor(geo.Pt(-5, 0)); ok {
		t.Error("LeafFor outside root area succeeded")
	}

	// Every interior point maps to exactly one leaf.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		p := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
		if _, ok := dep.LeafFor(p); !ok {
			t.Fatalf("no leaf for %v", p)
		}
	}

	if _, ok := dep.Servers["r.2"]; !ok || !slices.Contains(dep.Leaves(), "r.2") {
		t.Errorf("r.2 is no running leaf: Servers[r.2] present %v, leaves %v", ok, dep.Leaves())
	}

	checkRootVisitors(t, net, dep, []geo.Point{geo.Pt(100, 100), geo.Pt(900, 100), geo.Pt(100, 900), geo.Pt(900, 900), geo.Pt(950, 950)})
}

func TestDeploySingleServer(t *testing.T) {
	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()
	dep, err := Deploy(net, Spec{RootArea: geo.R(0, 0, 100, 100)}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if len(dep.Servers) != 1 {
		t.Fatalf("servers = %d", len(dep.Servers))
	}
	leaf, ok := dep.LeafFor(geo.Pt(50, 50))
	if !ok || leaf != "r" {
		t.Errorf("LeafFor = %v (root must be its own leaf)", leaf)
	}
	if dep.Root() != "r" {
		t.Errorf("root = %s", dep.Root())
	}

	checkRootVisitors(t, net, dep, []geo.Point{geo.Pt(10, 10), geo.Pt(50, 50), geo.Pt(90, 20)})
}

// checkRootVisitors registers one object at each point, waits until the
// root server holds a record for every one of them, and checks that
// RootVisitorCount reports the root server's own count.
func checkRootVisitors(t *testing.T, net transport.Network, dep *Deployment, pts []geo.Point) {
	t.Helper()
	root, ok := dep.Servers[dep.Root()]
	if !ok {
		t.Fatalf("no server for root %s", dep.Root())
	}
	for i, p := range pts {
		oid := fmt.Sprintf("o%d", i)
		entry, ok := dep.LeafFor(p)
		if !ok {
			t.Fatalf("no leaf for %v", p)
		}
		c, err := client.New(net, msg.NodeID("owner-"+oid), entry, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Register(context.Background(), core.Sighting{OID: core.OID(oid), T: time.Now(), Pos: p, SensAcc: 5}, 10, 50, 3); err != nil {
			t.Fatalf("register %s: %v", oid, err)
		}
	}
	// Polls: path messages climb asynchronously and signal nothing.
	for deadline := time.Now().Add(10 * time.Second); root.VisitorCount() != len(pts); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("root holds %d of %d visitor records", root.VisitorCount(), len(pts))
		}
	}
	if got, want := dep.RootVisitorCount(), root.VisitorCount(); got != want {
		t.Errorf("RootVisitorCount = %d, root server's VisitorCount = %d", got, want)
	}
}

func TestDeployInvalidSpec(t *testing.T) {
	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()
	if _, err := Deploy(net, Spec{}, server.Options{}); err == nil {
		t.Error("invalid spec deployed")
	}
}

func TestLevelFanout(t *testing.T) {
	if got := (Level{Rows: 3, Cols: 2}).Fanout(); got != 6 {
		t.Errorf("Fanout = %d", got)
	}
}

// BenchmarkDeploymentHeapPerObject reports the live heap a deployment of
// the benchmark's commute_updates shape (root, 2×2, 2×2 on Inproc, two
// shards per leaf, a visitor log per server and a sighting WAL per leaf)
// holds per registered object, once every forwarding path reaches the
// root: the leaf's registration and sighting plus the forwarding records
// of the level-1 server and the root. It registers 20 000 objects from 8
// clients, and the benchmark's population, 40 000 from 2 clients. Run it
// with -benchtime=1x.
func BenchmarkDeploymentHeapPerObject(b *testing.B) {
	for _, shape := range []struct{ objects, workers int }{{20_000, 8}, {40_000, 2}} {
		b.Run(fmt.Sprintf("objects=%d,clients=%d", shape.objects, shape.workers), func(b *testing.B) {
			deploymentHeapPerObject(b, shape.objects, shape.workers)
		})
	}
}

func deploymentHeapPerObject(b *testing.B, objects, workers int) {
	const side = 8000
	spec := Spec{RootArea: geo.R(0, 0, side, side), Levels: []Level{{2, 2}, {2, 2}}}
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		net := transport.NewInproc(transport.InprocOptions{})
		dep, err := DeployWith(net, spec, server.Options{Shards: 2}, func(rec store.ConfigRecord, o server.Options) (server.Options, error) {
			vw, err := store.OpenFileWAL(filepath.Join(dir, rec.ID+"-visitors.wal"))
			if err != nil {
				return o, err
			}
			o.WAL = vw
			if rec.IsLeaf() {
				if o.SightingWAL, err = store.OpenShardedWAL(filepath.Join(dir, rec.ID+"-sightings"), 2); err != nil {
					vw.Close()
					return o, err
				}
			}
			return o, nil
		})
		if err != nil {
			b.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c, err := client.New(net, msg.NodeID(fmt.Sprintf("c%d", w)), dep.Leaves()[0], client.Options{})
				if err != nil {
					errs[w] = err
					return
				}
				defer c.Close()
				rng := rand.New(rand.NewSource(int64(w)))
				for k := w; k < objects; k += workers {
					p := geo.Pt(rng.Float64()*side, rng.Float64()*side)
					leaf, _ := dep.LeafFor(p)
					c.SetEntry(leaf)
					s := core.Sighting{OID: core.OID(fmt.Sprintf("o%06d", k)), T: time.Now(), Pos: p, SensAcc: 5}
					if _, err := c.Register(context.Background(), s, 10, 50, 3); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		// Polls: path messages climb asynchronously and signal nothing.
		for deadline := time.Now().Add(time.Minute); dep.RootVisitorCount() < objects; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				b.Fatalf("forwarding paths incomplete: %d of %d at the root", dep.RootVisitorCount(), objects)
			}
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		b.ReportMetric((float64(after.HeapAlloc)-float64(before.HeapAlloc))/float64(objects), "heapB/object")
		dep.Close()
		net.Close()
	}
}

// BenchmarkRegisterPopulation registers a population into the benchmark's
// tree shape (root, 2×2, 2×2 on Inproc, no logs) the way its set-up does:
// two clients, each registering its objects one at a time, leaf by leaf,
// entering at the object's leaf, until every forwarding path reaches the
// root. It reports the time per registration and the path envelopes per
// registration, each a tracked call with its own acknowledgement, counted
// by a pass-through FaultPlan as they are sent.
func BenchmarkRegisterPopulation(b *testing.B) {
	const objects, clients, side = 20_000, 2, 8000
	spec := Spec{RootArea: geo.R(0, 0, side, side), Levels: []Level{{2, 2}, {2, 2}}}
	var took time.Duration
	var envelopes atomic.Int64
	for i := 0; i < b.N; i++ {
		net := transport.NewInproc(transport.InprocOptions{FaultPlan: func(_, _ msg.NodeID, env msg.Envelope) transport.Fault {
			if _, ok := env.Msg.(msg.PathBatch); ok {
				envelopes.Add(1)
			}
			return transport.Fault{}
		}})
		dep, err := Deploy(net, spec, server.Options{})
		if err != nil {
			b.Fatal(err)
		}
		// Each client's objects, grouped by leaf.
		rng := rand.New(rand.NewSource(int64(i)))
		byLeaf := make([]map[msg.NodeID][]core.Sighting, clients)
		for c := range byLeaf {
			byLeaf[c] = make(map[msg.NodeID][]core.Sighting)
		}
		for k := 0; k < objects; k++ {
			p := geo.Pt(rng.Float64()*side, rng.Float64()*side)
			leaf, _ := dep.LeafFor(p)
			s := core.Sighting{OID: core.OID(fmt.Sprintf("o%06d", k)), T: time.Now(), Pos: p, SensAcc: 5}
			byLeaf[k%clients][leaf] = append(byLeaf[k%clients][leaf], s)
		}
		start := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, clients)
		for c := range byLeaf {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl, err := client.New(net, msg.NodeID(fmt.Sprintf("c%d", c)), dep.Leaves()[0], client.Options{})
				if err != nil {
					errs[c] = err
					return
				}
				defer cl.Close()
				for _, leaf := range dep.Leaves() {
					cl.SetEntry(leaf)
					for _, s := range byLeaf[c][leaf] {
						if _, err := cl.Register(context.Background(), s, 10, 50, 3); err != nil {
							errs[c] = err
							return
						}
					}
				}
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		// Polls: path messages climb asynchronously and signal nothing.
		for deadline := time.Now().Add(time.Minute); dep.RootVisitorCount() < objects; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				b.Fatalf("forwarding paths incomplete: %d of %d at the root", dep.RootVisitorCount(), objects)
			}
		}
		took += time.Since(start)
		dep.Close()
		net.Close()
	}
	regs := float64(b.N * objects)
	b.ReportMetric(float64(took.Microseconds())/regs, "us/registration")
	b.ReportMetric(float64(envelopes.Load())/regs, "pathEnvelopes/registration")
}
