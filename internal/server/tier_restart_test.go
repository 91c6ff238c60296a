package server

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
	"locsvc/internal/store"
	"locsvc/internal/transport"
)

// kmSquare is a one-leaf deployment's service area, 1 km square.
func kmSquare() core.Area { return core.AreaFromRect(geo.R(0, 0, 1000, 1000)) }

// TestTieringRequiresSightingWAL: a tiered leaf keeps its runs in its
// sighting log's directory, so New refuses Tiering without a SightingWAL
// and names the missing log.
func TestTieringRequiresSightingWAL(t *testing.T) {
	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()
	_, err := New(store.ConfigRecord{ID: "leaf", SA: kmSquare()}, kmSquare(), net,
		Options{Tiering: &store.TierConfig{MemtableBytes: 1}})
	if err == nil || !strings.Contains(err.Error(), "SightingWAL") {
		t.Fatalf("New = %v, want a refusal naming the SightingWAL", err)
	}
}

// openTieredLeaf starts a one-shard tiered leaf over the logs in dir,
// recovering what they hold. Its memtable budget is the floor, so about 40
// installed objects push it into a flush.
func openTieredLeaf(t *testing.T, net transport.Network, dir string) (*Server, error) {
	t.Helper()
	vw, err := store.OpenFileWAL(filepath.Join(dir, "leaf-visitors.wal"))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := store.OpenShardedWAL(filepath.Join(dir, "leaf-sightings"), 1)
	if err != nil {
		t.Fatal(err)
	}
	return New(store.ConfigRecord{ID: "leaf", SA: kmSquare()}, kmSquare(), net,
		Options{WAL: vw, SightingWAL: sw, Tiering: &store.TierConfig{MemtableBytes: 1}})
}

// flushTiered installs objects 1..40 at (900, 900) behind what the caller
// installed and flushes the leaf's memtable into a run.
func flushTiered(t *testing.T, s *Server) {
	t.Helper()
	for i := 1; i <= 40; i++ {
		install(t, s, i, geo.Pt(900, 900), 10)
	}
	if err := s.sightings.MaintainTiers(); err != nil || s.sightings.TierStats().Flushes == 0 {
		t.Fatalf("no flush (%v)", err)
	}
}

// TestTieredLeafRestartKeepsPostFlushUpdate: a tiered leaf registers an
// object, flushes it to a run, acknowledges a newer update and restarts
// from its logs; the position it answers is the update's, not the run's.
func TestTieredLeafRestartKeepsPostFlushUpdate(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()
	open := func() *Server {
		t.Helper()
		s, err := openTieredLeaf(t, net, dir)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	dev, err := net.Attach("dev", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	s := open()
	oid := install(t, s, 0, geo.Pt(1, 1), 10)
	flushTiered(t, s)
	res, err := dev.Call(ctx, "leaf", msg.UpdateReq{S: core.Sighting{OID: oid, T: time.Now(), Pos: geo.Pt(9, 9), SensAcc: 5}, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ures, ok := res.(msg.UpdateRes); !ok || ures.Moved {
		t.Fatalf("update reply %#v", res)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = open()
	defer s.Close()
	res, err = dev.Call(ctx, "leaf", msg.PosQueryReq{OID: oid})
	if err != nil {
		t.Fatal(err)
	}
	if pres, ok := res.(msg.PosQueryRes); !ok || !pres.Found || pres.LD.Pos != geo.Pt(9, 9) {
		t.Fatalf("after the restart the leaf answers %#v, want the update's position (9, 9)", res)
	}
}

// TestTieredLeafRefusesDamagedSightingLog: a tiered leaf whose sighting
// segment is damaged mid-log, behind a flushed run, is refused by New with
// ErrCorruptWAL and the segment is left as it was. Serving instead would
// answer the run's older positions and append new updates behind the
// damage, where no replay reaches them.
func TestTieredLeafRefusesDamagedSightingLog(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()
	s, err := openTieredLeaf(t, net, dir)
	if err != nil {
		t.Fatal(err)
	}
	install(t, s, 0, geo.Pt(1, 1), 10)
	flushTiered(t, s)
	// The tail: newer positions of objects the run holds.
	for i := 0; i < 10; i++ {
		install(t, s, i, geo.Pt(2, float64(i)), 10)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	seg := filepath.Join(dir, "leaf-sightings", "shard-0000.wal")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := openTieredLeaf(t, net, dir); !errors.Is(err, store.ErrCorruptWAL) {
		if s != nil {
			s.Close()
		}
		t.Fatalf("New over a damaged sighting segment = %v, want ErrCorruptWAL", err)
	}
	after, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data) {
		t.Fatalf("the refused leaf rewrote its damaged segment: %d bytes, was %d", len(after), len(data))
	}
}

// TestTieredMeetingReadsNoDisk: a meeting subscription on a tiered leaf
// finds a partner held only in a run through the run's resident columns.
// The meeting fires once, and neither the delta nor a resync probes a
// run's bloom filter, the first step of every disk read.
func TestTieredMeetingReadsNoDisk(t *testing.T) {
	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()
	s, err := openTieredLeaf(t, net, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	partner := install(t, s, 0, geo.Pt(100, 100), 10)
	mover := install(t, s, 41, geo.Pt(110, 100), 10)
	flushTiered(t, s)
	if mb := s.sightings.TierStats().MemtableBytes; mb != 0 {
		t.Fatalf("the memtable holds %d bytes after the flush, want both objects only in a run", mb)
	}
	probes := func() int64 {
		st := s.sightings.TierStats()
		return st.BloomHits + st.BloomMisses
	}
	before := probes()

	// The fillers at (900, 900) lie outside the subscription.
	ls := &leafSub{
		sub:        msg.EventSubscribe{SubID: "meet", Kind: msg.EventMeeting, Distance: 20},
		bounds:     geo.R(0, 0, 500, 500),
		firedPairs: make(map[pairKey]bool),
	}
	d := store.Delta{Op: store.DeltaPut, OID: mover, HasOld: true, Old: geo.Pt(110, 100), New: geo.Pt(112, 100)}
	fires := s.applyMeetingDelta(ls, d, nil)
	if len(fires) != 1 || fires[0].pair != orderedPair(partner, mover) {
		t.Fatalf("fires = %+v, want the one pair (%s, %s)", fires, partner, mover)
	}
	if fires := s.applyMeetingDelta(ls, d, nil); len(fires) != 0 {
		t.Fatalf("the meeting re-fired: %+v", fires)
	}
	// A resync finds the pair from the run and keeps it, already fired.
	s.events.mu.Lock()
	s.events.local[ls.sub.SubID] = ls
	s.events.mu.Unlock()
	s.resyncMeeting(ls)
	if pairs := s.EventMeetingPairsForTest(ls.sub.SubID); len(pairs) != 1 {
		t.Fatalf("after the resync the meeting pairs are %v, want the one pair", pairs)
	}
	if got := probes(); got != before {
		t.Fatalf("bloom probes %d → %d: the meeting read the partner from disk", before, got)
	}
}
