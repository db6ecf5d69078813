package segment

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"nlexplain/internal/fault"
	"nlexplain/internal/table"
)

// TestSegmentWriteFaultLeavesNoPartial: a segment write that dies
// mid-stream (ENOSPC, torn) surfaces the error and leaves nothing at
// the final path — the tmp + rename protocol means readers can never
// observe a half-written segment.
func TestSegmentWriteFaultLeavesNoPartial(t *testing.T) {
	for _, plan := range []string{
		"write:err=ENOSPC",
		"write:err=ENOSPC:short",
		"sync:err=EIO",
	} {
		t.Run(plan, func(t *testing.T) {
			dir := t.TempDir()
			fs := fault.NewInject(fault.OS, 1, fault.MustParsePlan(plan)...)
			path := filepath.Join(dir, "seg-001.seg")
			err := Write(fs, path, testMeta, testRows, nil)
			if !errors.Is(err, syscall.ENOSPC) && !errors.Is(err, syscall.EIO) {
				t.Fatalf("faulted write err = %v, want the injected errno", err)
			}
			if _, serr := os.Stat(path); !errors.Is(serr, os.ErrNotExist) {
				t.Fatalf("partial segment visible at %s after faulted write", path)
			}
			entries, derr := os.ReadDir(dir)
			if derr != nil {
				t.Fatal(derr)
			}
			if len(entries) != 0 {
				t.Fatalf("faulted write left %d stray files (first: %s)", len(entries), entries[0].Name())
			}
			// The one-shot rule is exhausted: a retry on the same injector
			// succeeds and reads back intact.
			if err := Write(fs, path, testMeta, testRows, nil); err != nil {
				t.Fatalf("retry after one-shot fault: %v", err)
			}
			_, rows, _, rerr := Read(fs, path)
			if rerr != nil || len(rows) != len(testRows) {
				t.Fatalf("retried segment: rows=%d err=%v", len(rows), rerr)
			}
		})
	}
}

// TestSegmentZonesSurviveFaultRetry: zone footers ride the same
// atomic protocol — a faulted first attempt never corrupts the retry.
func TestSegmentZonesSurviveFaultRetry(t *testing.T) {
	tb, err := table.New(testMeta.Name, testMeta.Columns, testRows)
	if err != nil {
		t.Fatal(err)
	}
	zones := tb.ZoneSnapshot()
	fs := fault.NewInject(fault.OS, 1, fault.MustParsePlan("write:err=EIO:short")...)
	path := filepath.Join(t.TempDir(), "seg-002.seg")
	if err := Write(fs, path, testMeta, testRows, zones); err == nil {
		t.Fatal("faulted zone write succeeded")
	}
	if err := Write(fs, path, testMeta, testRows, zones); err != nil {
		t.Fatalf("retry: %v", err)
	}
	_, _, gotZones, err := Read(fs, path)
	if err != nil || len(gotZones) != len(zones) {
		t.Fatalf("zone footer after retry: %d columns, err=%v", len(gotZones), err)
	}
}

// TestManifestTornRenameKeepsPrevious is the crash-consistency pin for
// checkpointing: when the rename installing a new MANIFEST fails, the
// previous manifest must still load — the store can keep serving the
// old checkpoint and retry later.
func TestManifestTornRenameKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	prev := &Manifest{Gen: 7, WALSeq: 3, Tables: []TableRef{
		{Name: "olympics", File: "seg-0000000000000007-0000.seg", Gen: 7, Version: "aa", Rows: 4, Cols: 3},
	}}
	if err := WriteManifest(nil, dir, prev); err != nil {
		t.Fatal(err)
	}

	fs := fault.NewInject(fault.OS, 1,
		&fault.Rule{Op: fault.OpRename, Path: ManifestName, Count: fault.Sticky, Err: syscall.EIO})
	next := &Manifest{Gen: 8, WALSeq: 9}
	if err := WriteManifest(fs, dir, next); !errors.Is(err, syscall.EIO) {
		t.Fatalf("torn rename err = %v, want EIO", err)
	}

	got, ok, err := LoadManifest(nil, dir)
	if err != nil || !ok {
		t.Fatalf("previous manifest unreadable after torn rename: %v %v", ok, err)
	}
	if got.Gen != 7 || got.WALSeq != 3 || len(got.Tables) != 1 {
		t.Fatalf("previous manifest damaged: %+v", got)
	}
	// No stray tmp files: the failed install cleaned up after itself.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != ManifestName {
		t.Fatalf("torn rename left strays: %v", entries)
	}

	// Heal: the retried install replaces atomically.
	fs.Heal()
	if err := WriteManifest(fs, dir, next); err != nil {
		t.Fatalf("healed install: %v", err)
	}
	got, _, err = LoadManifest(nil, dir)
	if err != nil || got.Gen != 8 || got.WALSeq != 9 {
		t.Fatalf("healed manifest: %+v %v", got, err)
	}
}
