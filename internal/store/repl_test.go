package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// listRunFiles returns the run file base names under dir, any shard.
func listRunFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if _, _, ok := parseRunName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestReplFetchRunTornTransfer mirrors the crash-mid-flush sweep test for
// run shipping: a standby that died mid-RunFetch leaves a ".tier-fetch-*"
// temporary behind, restart must sweep it, and the re-fetch of the same
// run must succeed chunk by chunk. Mid-transfer failures and corrupted
// payloads must leave no trace either.
func TestReplFetchRunTornTransfer(t *testing.T) {
	srcDir := t.TempDir()
	populateTiered(t, srcDir, 2, 200)
	src, swal := reopenTiered(t, srcDir, 2)
	defer swal.Close()
	if err := src.Recover(); err != nil {
		t.Fatal(err)
	}
	runs := listRunFiles(t, srcDir)
	if len(runs) == 0 {
		t.Fatal("source store flushed no runs")
	}
	name := runs[0]

	// The standby's tier directory after a crash mid-fetch: an orphaned
	// download temp (and nothing else).
	dstDir := t.TempDir()
	torn := filepath.Join(dstDir, ".tier-fetch-54321")
	if err := os.WriteFile(torn, []byte("half a run, torn by a crash"), 0o644); err != nil {
		t.Fatal(err)
	}
	dst, dwal := reopenTiered(t, dstDir, 2)
	defer dwal.Close()
	if err := dst.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("torn download %s survived recovery", torn)
	}

	// Re-fetch in deliberately tiny chunks so the loop runs many rounds.
	read := func(off int64, maxBytes int) ([]byte, bool, error) {
		if maxBytes > 64 {
			maxBytes = 64
		}
		data, _, eof, err := src.ReadRunChunk(name, off, maxBytes)
		return data, eof, err
	}
	if err := dst.ReplFetchRun(name, read); err != nil {
		t.Fatalf("re-fetch after crash: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dstDir, name)); err != nil {
		t.Fatalf("fetched run not installed: %v", err)
	}
	// Idempotent: fetching an installed run is a no-op even if the reader
	// would fail.
	if err := dst.ReplFetchRun(name, func(int64, int) ([]byte, bool, error) {
		return nil, false, errors.New("must not be called")
	}); err != nil {
		t.Fatalf("re-fetch of installed run: %v", err)
	}

	assertNoFetchTemps := func(when string) {
		t.Helper()
		temps, err := filepath.Glob(filepath.Join(dstDir, ".tier-fetch-*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(temps) != 0 {
			t.Fatalf("%s left fetch temps behind: %v", when, temps)
		}
	}
	assertNoFetchTemps("successful fetch")

	if len(runs) < 2 {
		// Force a second run to exist for the failure cases.
		t.Skip("source produced a single run; failure cases need a second")
	}
	other := runs[1]

	// A transfer failing mid-stream must abort cleanly: error out, no
	// temp, no final file.
	tornErr := errors.New("connection torn")
	err := dst.ReplFetchRun(other, func(off int64, maxBytes int) ([]byte, bool, error) {
		if off == 0 {
			data, _, _, rerr := src.ReadRunChunk(other, 0, 64)
			return data, false, rerr
		}
		return nil, false, tornErr
	})
	if !errors.Is(err, tornErr) {
		t.Fatalf("torn transfer error = %v, want %v", err, tornErr)
	}
	assertNoFetchTemps("torn transfer")
	if _, serr := os.Stat(filepath.Join(dstDir, other)); !os.IsNotExist(serr) {
		t.Fatal("torn transfer installed a run")
	}

	// A corrupted transfer must fail checksum verification and leave no
	// trace.
	err = dst.ReplFetchRun(other, func(off int64, maxBytes int) ([]byte, bool, error) {
		data, _, eof, rerr := src.ReadRunChunk(other, off, maxBytes)
		if rerr == nil && off == 0 && len(data) > 40 {
			data = append([]byte(nil), data...)
			data[40] ^= 0xff // flip one payload byte
		}
		return data, eof, rerr
	})
	if err == nil {
		t.Fatal("corrupted transfer verified clean")
	}
	assertNoFetchTemps("corrupted transfer")
	if _, serr := os.Stat(filepath.Join(dstDir, other)); !os.IsNotExist(serr) {
		t.Fatal("corrupted transfer installed a run")
	}

	// So must one whose damage sits in the spatial leaves, which neither
	// open nor the record scan reads: verify-before-install covers that
	// block's checksum too.
	meta, err := openRun(filepath.Join(srcDir, other))
	if err != nil {
		t.Fatal(err)
	}
	spatialByte := meta.recordsLen + 3 // inside the first leaf entry's X
	meta.retire(false)
	err = dst.ReplFetchRun(other, func(off int64, maxBytes int) ([]byte, bool, error) {
		data, _, eof, rerr := src.ReadRunChunk(other, off, maxBytes)
		if rerr == nil && off <= spatialByte && spatialByte < off+int64(len(data)) {
			data = append([]byte(nil), data...)
			data[spatialByte-off] ^= 0x01
		}
		return data, eof, rerr
	})
	if err == nil || !strings.Contains(err.Error(), "spatial checksum") {
		t.Fatalf("transfer with a damaged spatial leaf: %v, want a spatial checksum failure", err)
	}
	assertNoFetchTemps("spatially corrupted transfer")
	if _, serr := os.Stat(filepath.Join(dstDir, other)); !os.IsNotExist(serr) {
		t.Fatal("spatially corrupted transfer installed a run")
	}

	// And the happy path for the second run still works afterwards.
	if err := dst.ReplFetchRun(other, func(off int64, maxBytes int) ([]byte, bool, error) {
		data, _, eof, rerr := src.ReadRunChunk(other, off, maxBytes)
		return data, eof, rerr
	}); err != nil {
		t.Fatalf("clean fetch after failures: %v", err)
	}
}

// TestReplFetchRunRejectsBadNames guards the path-traversal check.
func TestReplFetchRunRejectsBadNames(t *testing.T) {
	dir := t.TempDir()
	db, wal := reopenTiered(t, dir, 2)
	defer wal.Close()
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"../escape", "run-x", "segment-000.wal", "/etc/passwd"} {
		if err := db.ReplFetchRun(name, nil); err == nil {
			t.Errorf("ReplFetchRun(%q) accepted a bad name", name)
		}
		if _, _, _, err := db.ReadRunChunk(name, 0, 10); err == nil {
			t.Errorf("ReadRunChunk(%q) accepted a bad name", name)
		}
	}
}
