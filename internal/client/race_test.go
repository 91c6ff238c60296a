package client_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
	"locsvc/internal/server"
)

// TestSetEntryConcurrentWithOperations pins the SetEntry data race fixed by
// guarding the entry field: one goroutine rotates the entry server through
// all four leaves while others run every entry-routed operation. Run under
// -race, any unsynchronized read of the entry field fails the test.
func TestSetEntryConcurrentWithOperations(t *testing.T) {
	net, _ := deploy(t, server.Options{})
	c, err := client.New(net, "c", "r.0", client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	obj, err := c.Register(ctx, core.Sighting{OID: "o1", T: time.Now(), Pos: geo.Pt(100, 100), SensAcc: 5}, 10, 50, 3)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var rotator, wg sync.WaitGroup

	// The rotator: every entry read racing below must observe either the
	// old or the new value, never a torn one. It runs until every
	// operation has finished.
	rotator.Add(1)
	go func() {
		defer rotator.Done()
		leaves := []string{"r.0", "r.1", "r.2", "r.3"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.SetEntry(msg.NodeID(leaves[i%len(leaves)]))
		}
	}()

	ops := []func(){
		func() { _, _ = c.PosQuery(ctx, "o1") },
		func() { _, _ = c.RangeQuery(ctx, core.AreaFromRect(geo.R(0, 0, 500, 500)), 100, 0.5) },
		func() { _, _ = c.Diag(ctx) },
		func() {
			_ = obj.Update(ctx, core.Sighting{OID: "o1", T: time.Now(), Pos: geo.Pt(110, 100), SensAcc: 5})
		},
	}
	for _, op := range ops {
		op := op
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				op()
			}
		}()
	}

	// Let the operation goroutines finish, then stop the rotator.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("operations never finished")
	}
	close(stop)
	rotator.Wait()
}
