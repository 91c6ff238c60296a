package rig

import (
	"context"
	"fmt"
	"time"

	"locsvc/internal/transport"
)

// reopenSample is how many acknowledged positions the reopen check reads.
const reopenSample = 2000

// reopenAndVerify closes the service, starts it again on the same directory
// without registering anything, and checks that a sample of objects is
// reported exactly where its last acknowledged update put it; the outcome is
// counted into p. The World serves the reopened deployment afterwards.
func (w *World) reopenAndVerify(p *Phase) error {
	// Path propagation is asynchronous; let the last handovers' repairs
	// reach the root before the logs close.
	time.Sleep(300 * time.Millisecond)
	if err := w.Close(); err != nil {
		return fmt.Errorf("rig: closing before reopen: %w", err)
	}
	w.net = transport.NewInproc(transport.InprocOptions{})
	w.trace = nil
	if err := w.deploy(); err != nil {
		return err
	}
	n := len(w.truth)
	if err := waitFor(time.Minute, func() bool { return w.dep.RootVisitorCount() >= n }); err != nil {
		return fmt.Errorf("rig: reopened root knows %d of %d objects", w.dep.RootVisitorCount(), n)
	}
	sample := min(reopenSample, n)
	cn := w.conns[0]
	ctx := context.Background()
	for k := 0; k < sample; k++ {
		i := k * n / sample
		want := unpack(w.truth[i].pos.Load())
		li, _ := w.cfg.LeafOf(want)
		cn.c.SetEntry(w.leaves[li])
		ld, err := cn.c.PosQuery(ctx, w.oids[i])
		p.Attempted++
		switch {
		case err != nil:
			p.fail("reopen_mismatch", 1, fmt.Errorf("after reopen %s: %w", w.oids[i], err))
		case ld.Pos != want:
			p.fail("reopen_mismatch", 1, fmt.Errorf("after reopen %s is at %v, last acknowledged position was %v", w.oids[i], ld.Pos, want))
		}
	}
	return nil
}
