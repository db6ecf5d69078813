package store

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"nlexplain/internal/segment"
	"nlexplain/internal/wal"
)

// openDurable opens a durable store with synchronous WAL writes and
// every automatic checkpoint trigger disabled, so tests control
// exactly when records hit the log and when they compact.
func openDurable(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(Options{}, DurableOptions{
		Dir:                dir,
		SyncWindow:         -1,
		CheckpointInterval: -1,
		CheckpointBytes:    -1,
	})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return st
}

// tableState captures what recovery must reproduce for one table.
type tableState struct {
	gen     uint64
	version string
	rows    int
}

func captureState(st *Store) map[string]tableState {
	out := make(map[string]tableState)
	for _, s := range st.Snapshots() {
		out[s.Table().Name()] = tableState{gen: s.Gen(), version: s.Version(), rows: s.Table().NumRows()}
	}
	return out
}

func checkRecovered(t *testing.T, st *Store, want map[string]tableState) {
	t.Helper()
	if st.Len() != len(want) {
		t.Fatalf("recovered %d tables, want %d", st.Len(), len(want))
	}
	for name, ws := range want {
		s, ok := st.Get(name)
		if !ok {
			t.Fatalf("table %q not recovered", name)
		}
		if s.Gen() != ws.gen || s.Version() != ws.version || s.Table().NumRows() != ws.rows {
			t.Fatalf("table %q recovered as (gen %d, %s, %d rows), want (gen %d, %s, %d rows)",
				name, s.Gen(), s.Version(), s.Table().NumRows(), ws.gen, ws.version, ws.rows)
		}
	}
}

func TestDurableRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	if _, err := st.Register(mustTable(t, "a", 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Register(mustTable(t, "b", 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append("a", [][]string{{"nation9", "2024", "99"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Register(mustTable(t, "c", 2)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Drop("b"); err != nil || !ok {
		t.Fatalf("Drop(b) = %v, %v", ok, err)
	}
	want := captureState(st)
	wantGen := st.Stats().Gen
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2 := openDurable(t, dir)
	defer st2.Close()
	checkRecovered(t, st2, want)
	if g := st2.Stats().Gen; g < wantGen {
		t.Fatalf("recovered generation %d regressed below %d", g, wantGen)
	}
	// Post-recovery mutations must continue strictly past everything
	// recovered.
	snap, err := st2.Register(mustTable(t, "d", 1))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Gen() <= wantGen {
		t.Fatalf("post-recovery generation %d not past recovered %d", snap.Gen(), wantGen)
	}
}

func TestDurableCrashReplayWALOnly(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	if _, err := st.Register(mustTable(t, "a", 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append("a", [][]string{{"nation1", "2028", "7"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Register(mustTable(t, "gone", 2)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Drop("gone"); err != nil || !ok {
		t.Fatalf("Drop(gone) = %v, %v", ok, err)
	}
	want := captureState(st)
	// No Close: recovery must come entirely from WAL replay.
	st2 := openDurable(t, dir)
	defer st2.Close()
	checkRecovered(t, st2, want)
	if n := st2.dur.replayedRecords.Load(); n != 4 {
		t.Fatalf("replayed %d records, want 4", n)
	}
}

func TestDurableCheckpointPlusTailReplay(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	if _, err := st.Register(mustTable(t, "base", 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Register(mustTable(t, "doomed", 2)); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Tail mutations after the checkpoint: replayed from the WAL over
	// the restored segments, gen-gated.
	if _, err := st.Append("base", [][]string{{"nation2", "2032", "11"}}); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Drop("doomed"); err != nil || !ok {
		t.Fatalf("Drop(doomed) = %v, %v", ok, err)
	}
	if _, err := st.Register(mustTable(t, "late", 3)); err != nil {
		t.Fatal(err)
	}
	want := captureState(st)
	// Crash: no Close.
	st2 := openDurable(t, dir)
	defer st2.Close()
	checkRecovered(t, st2, want)
}

// activeWAL returns the highest-sequence wal file in dir.
func activeWAL(t *testing.T, dir string) string {
	t.Helper()
	var logs []string
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			logs = append(logs, e.Name())
		}
	}
	if len(logs) == 0 {
		t.Fatal("no wal files")
	}
	sort.Strings(logs)
	return filepath.Join(dir, logs[len(logs)-1])
}

func TestDurableTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	if _, err := st.Register(mustTable(t, "kept", 4)); err != nil {
		t.Fatal(err)
	}
	kept, _ := st.Get("kept")
	if _, err := st.Register(mustTable(t, "torn", 3)); err != nil {
		t.Fatal(err)
	}
	// Crash, then shear the final record: recovery must truncate it and
	// keep everything before.
	path := activeWAL(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	st2 := openDurable(t, dir)
	defer st2.Close()
	if st2.Len() != 1 {
		t.Fatalf("recovered %d tables, want 1", st2.Len())
	}
	s, ok := st2.Get("kept")
	if !ok || s.Gen() != kept.Gen() || s.Version() != kept.Version() {
		t.Fatalf("kept table not recovered intact: %v %v", s, ok)
	}
	if n := st2.dur.truncatedBytes.Load(); n == 0 {
		t.Fatal("truncated bytes not counted")
	}
	// The log must be appendable again after truncation.
	if _, err := st2.Register(mustTable(t, "after", 2)); err != nil {
		t.Fatalf("mutation after torn-tail recovery: %v", err)
	}
}

func TestDurableMidLogCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	if _, err := st.Register(mustTable(t, "a", 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Register(mustTable(t, "b", 4)); err != nil {
		t.Fatal(err)
	}
	path := activeWAL(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside the first record: the CRC mismatch is
	// not at end-of-file, so this is damage, not a torn tail.
	data[12] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{}, DurableOptions{Dir: dir, SyncWindow: -1, CheckpointInterval: -1, CheckpointBytes: -1}); err == nil {
		t.Fatal("Open succeeded over mid-log corruption")
	} else if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("Open error %v, want wal.ErrCorrupt", err)
	}
}

func TestDurableSegmentCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	if _, err := st.Register(mustTable(t, "a", 4)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var seg string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".seg") {
			seg = filepath.Join(dir, e.Name())
		}
	}
	if seg == "" {
		t.Fatal("no segment file after Close")
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{}, DurableOptions{Dir: dir, SyncWindow: -1, CheckpointInterval: -1, CheckpointBytes: -1}); err == nil {
		t.Fatal("Open succeeded over a corrupt segment")
	} else if !errors.Is(err, segment.ErrCorrupt) {
		t.Fatalf("Open error %v, want segment.ErrCorrupt", err)
	}
}

func TestDurableMutationAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	if _, err := st.Register(mustTable(t, "a", 4)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Register(mustTable(t, "b", 2)); !errors.Is(err, ErrDurability) {
		t.Fatalf("Register after Close: err = %v, want ErrDurability", err)
	}
	if _, err := st.Append("a", [][]string{{"x", "1", "2"}}); !errors.Is(err, ErrDurability) {
		t.Fatalf("Append after Close: err = %v, want ErrDurability", err)
	}
	if _, _, err := st.Drop("a"); !errors.Is(err, ErrDurability) {
		t.Fatalf("Drop after Close: err = %v, want ErrDurability", err)
	}
}

func TestDurableCheckpointReusesAndGCs(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	defer st.Close()
	if _, err := st.Register(mustTable(t, "hot", 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Register(mustTable(t, "cold", 4)); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segsAfter := func() map[string]bool {
		out := make(map[string]bool)
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		nwal := 0
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".seg") {
				out[e.Name()] = true
			}
			if strings.HasSuffix(e.Name(), ".log") {
				nwal++
			}
		}
		if nwal != 1 {
			t.Fatalf("%d wal files after checkpoint, want 1 (compacted logs not GC'd)", nwal)
		}
		return out
	}
	first := segsAfter()
	if len(first) != 2 {
		t.Fatalf("%d segments after first checkpoint, want 2", len(first))
	}
	man1, ok, err := segment.LoadManifest(nil, dir)
	if err != nil || !ok {
		t.Fatalf("LoadManifest: %v %v", ok, err)
	}
	coldFile := ""
	for _, ref := range man1.Tables {
		if ref.Name == "cold" {
			coldFile = ref.File
		}
	}

	// Mutate only "hot": the next checkpoint must rewrite hot's
	// segment, reuse cold's file untouched, and GC hot's old one.
	if _, err := st.Append("hot", [][]string{{"nation3", "2036", "5"}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	second := segsAfter()
	if len(second) != 2 {
		t.Fatalf("%d segments after second checkpoint, want 2", len(second))
	}
	if !second[coldFile] {
		t.Fatalf("unchanged table's segment %s was rewritten", coldFile)
	}
	man2, ok, err := segment.LoadManifest(nil, dir)
	if err != nil || !ok {
		t.Fatalf("LoadManifest: %v %v", ok, err)
	}
	if man2.WALSeq != man1.WALSeq+1 {
		t.Fatalf("manifest WALSeq %d after second checkpoint, want %d", man2.WALSeq, man1.WALSeq+1)
	}
	for _, ref := range man2.Tables {
		if ref.Name == "cold" && ref.File != coldFile {
			t.Fatalf("cold's manifest entry moved to %s, want reuse of %s", ref.File, coldFile)
		}
	}
}

func TestDurableStoreGenerationPersistsAcrossEmptyCatalog(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	if _, err := st.Register(mustTable(t, "a", 2)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Drop("a"); err != nil || !ok {
		t.Fatalf("Drop = %v, %v", ok, err)
	}
	gen := st.Stats().Gen
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openDurable(t, dir)
	defer st2.Close()
	if st2.Len() != 0 {
		t.Fatalf("recovered %d tables, want 0", st2.Len())
	}
	snap, err := st2.Register(mustTable(t, "b", 2))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Gen() <= gen {
		t.Fatalf("generation %d reused after restart of an empty catalog (last was %d)", snap.Gen(), gen)
	}
}
