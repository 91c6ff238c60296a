package sim

import (
	"context"
	"testing"
	"time"

	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/server"
)

func smallWorld(t *testing.T, hopLatency time.Duration) *World {
	t.Helper()
	w, err := NewWorld(Config{
		Spec: hierarchy.Spec{
			RootArea: geo.R(0, 0, 1500, 1500),
			Levels:   []hierarchy.Level{{Rows: 2, Cols: 2}},
		},
		NumObjects: 200,
		HopLatency: hopLatency,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

func TestWorldRegistersObjects(t *testing.T) {
	w := smallWorld(t, 0)
	if len(w.Objects) != 200 {
		t.Fatalf("objects = %d", len(w.Objects))
	}
	total := 0
	for _, leaf := range w.Dep.Leaves() {
		srv, _ := w.Dep.Server(leaf)
		total += srv.SightingCount()
	}
	if total != 200 {
		t.Errorf("sightings across leaves = %d", total)
	}
	root, _ := w.Dep.Server("r")
	waitRoot := time.Now().Add(5 * time.Second)
	for root.VisitorCount() != 200 && time.Now().Before(waitRoot) {
		// Polls: the simulator runs on the wall clock, and paths climb asynchronously.
		time.Sleep(5 * time.Millisecond)
	}
	if got := root.VisitorCount(); got != 200 {
		t.Errorf("root visitors = %d", got)
	}
	if w.Messages() == 0 {
		t.Error("message counter never incremented")
	}
}

func TestRunMixedLoad(t *testing.T) {
	w := smallWorld(t, 0)
	res, err := w.Run(context.Background(), Load{
		Workers:      4,
		OpsPerWorker: 100,
		Mix:          Mix{Updates: 1, PosQueries: 1, RangeQuery: 1},
		Locality:     0.5,
		RangeSize:    100,
	})
	if err != nil {
		t.Fatal(err)
	}
	var totalOps, totalErrs int64
	for name, st := range res.PerOp {
		totalOps += st.Count
		totalErrs += st.Errors
		if st.MeanMs < 0 {
			t.Errorf("%s mean latency %v", name, st.MeanMs)
		}
		if st.Throughput <= 0 {
			t.Errorf("%s throughput %v", name, st.Throughput)
		}
	}
	if totalOps != 400 {
		t.Errorf("total ops = %d, want 400", totalOps)
	}
	if totalErrs != 0 {
		t.Errorf("errors = %d", totalErrs)
	}
	if res.Messages <= 0 {
		t.Error("no messages counted during load")
	}
}

func TestLocalityControlsRemoteShare(t *testing.T) {
	w := smallWorld(t, 0)
	resLocal, err := w.Run(context.Background(), Load{
		Workers: 4, OpsPerWorker: 100,
		Mix: Mix{PosQueries: 1}, Locality: 1.0, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if remote := resLocal.PerOp["pos_remote"].Count; remote != 0 {
		t.Errorf("locality=1 produced %d remote queries", remote)
	}
	resRemote, err := w.Run(context.Background(), Load{
		Workers: 4, OpsPerWorker: 100,
		Mix: Mix{PosQueries: 1}, Locality: 0.0, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if local := resRemote.PerOp["pos_local"].Count; local > 20 {
		t.Errorf("locality=0 produced %d local queries", local)
	}
}

func TestHopLatencyMakesRemoteSlower(t *testing.T) {
	w := smallWorld(t, 2*time.Millisecond)
	res, err := w.Run(context.Background(), Load{
		Workers: 4, OpsPerWorker: 60,
		Mix: Mix{PosQueries: 1}, Locality: 0.5, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	local, lok := res.PerOp["pos_local"]
	remote, rok := res.PerOp["pos_remote"]
	if !lok || !rok {
		t.Fatalf("missing op stats: %+v", res.PerOp)
	}
	// A local query is client→leaf→client (2 hops); a remote one adds at
	// least 4 server hops. With 2 ms per hop the gap must be clear.
	if remote.MeanMs <= local.MeanMs {
		t.Errorf("remote (%.2f ms) not slower than local (%.2f ms)", remote.MeanMs, local.MeanMs)
	}
}

func TestNeighborLoadRuns(t *testing.T) {
	w := smallWorld(t, 0)
	res, err := w.Run(context.Background(), Load{
		Workers: 2, OpsPerWorker: 20,
		Mix: Mix{Neighbor: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.PerOp["neighbor"]
	if st.Count != 40 || st.Errors != 0 {
		t.Errorf("neighbor stats = %+v", st)
	}
}

func TestWorldDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.NumObjects != 10_000 || cfg.Spec.RootArea.Width() != 1500 {
		t.Errorf("defaults = %+v", cfg)
	}
	l := Load{}.withDefaults()
	if l.Workers == 0 || l.OpsPerWorker == 0 || l.RangeSize != 50 {
		t.Errorf("load defaults = %+v", l)
	}
	if err := serverOptsSmoke(); err != nil {
		t.Error(err)
	}
}

// serverOptsSmoke ensures the zero server.Options deploys (guards against
// accidental required fields creeping in).
func serverOptsSmoke() error {
	_ = server.Options{}
	return nil
}
