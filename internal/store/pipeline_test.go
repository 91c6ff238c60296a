package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
)

// gatedStore wraps a SightingStore and blocks inside PutBatch until the
// test releases it, so tests can deterministically pile updates onto a
// pipeline lane while its leader is mid-commit.
type gatedStore struct {
	SightingStore
	entered chan []core.Sighting // receives each batch on entry
	release chan struct{}        // one receive per batch to proceed
}

func (g *gatedStore) PutBatch(batch []core.Sighting, out []Delta) []Delta {
	g.entered <- append([]core.Sighting(nil), batch...)
	<-g.release
	return g.SightingStore.PutBatch(batch, out)
}

func TestPipelinePutApplies(t *testing.T) {
	db := NewShardedSightingDB(WithShards(4))
	pipe := NewUpdatePipeline(db)
	pipe.Put(sighting("a", 1, 2))
	if s, ok := db.Get("a"); !ok || s.Pos != geo.Pt(1, 2) {
		t.Fatalf("Get after pipeline Put = %+v, %v", s, ok)
	}
}

// TestPipelineGroupCommit pins the leader inside its first commit, queues
// followers on the same lane, and verifies they are all applied by the
// leader's next commit as one batch.
func TestPipelineGroupCommit(t *testing.T) {
	inner := NewShardedSightingDB(WithShards(1))
	gate := &gatedStore{SightingStore: inner, entered: make(chan []core.Sighting), release: make(chan struct{})}
	pipe := NewUpdatePipeline(gate)

	leaderDone := make(chan struct{})
	go func() {
		pipe.Put(sighting("leader", 0, 0))
		close(leaderDone)
	}()
	first := <-gate.entered // leader is now inside PutBatch
	if len(first) != 1 || first[0].OID != "leader" {
		t.Fatalf("first batch = %v", first)
	}

	const followers = 5
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pipe.Put(sighting(fmt.Sprintf("f%d", i), float64(i), 0))
		}(i)
	}
	// Wait until every follower is queued on the lane.
	deadline := time.Now().Add(5 * time.Second)
	for {
		lane := &pipe.lanes[0]
		lane.mu.Lock()
		n := len(lane.pending)
		lane.mu.Unlock()
		if n == followers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d followers queued", n, followers)
		}
		// Polls: followers queue on goroutines that signal nothing.
		time.Sleep(time.Millisecond)
	}

	gate.release <- struct{}{} // leader commits its own update
	second := <-gate.entered   // ... and comes back with the queued batch
	if len(second) != followers {
		t.Errorf("second batch has %d updates, want %d (group commit broken)", len(second), followers)
	}
	gate.release <- struct{}{}
	wg.Wait()
	<-leaderDone
	if inner.Len() != followers+1 {
		t.Errorf("Len = %d, want %d", inner.Len(), followers+1)
	}
}

// TestPipelineConcurrentDistinctObjects checks that heavy concurrent
// traffic through the pipeline loses no update: every object ends at its
// last written position.
func TestPipelineConcurrentDistinctObjects(t *testing.T) {
	iters := 200
	if testing.Short() {
		iters = 40
	}
	for _, shards := range []int{1, 8} {
		db := NewShardedSightingDB(WithShards(shards))
		pipe := NewUpdatePipeline(db)
		const workers = 10
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < iters; i++ {
					pipe.Put(sighting(fmt.Sprintf("w%d", w), rng.Float64()*100, float64(i)))
				}
			}(w)
		}
		wg.Wait()
		if db.Len() != workers {
			t.Fatalf("shards=%d: Len = %d, want %d", shards, db.Len(), workers)
		}
		for w := 0; w < workers; w++ {
			s, ok := db.Get(core.OID(fmt.Sprintf("w%d", w)))
			if !ok || s.Pos.Y != float64(iters-1) {
				t.Errorf("shards=%d: w%d final = %+v, %v (want Y=%d)", shards, w, s, ok, iters-1)
			}
		}
	}
}
