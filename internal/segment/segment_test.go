package segment

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"nlexplain/internal/table"
)

var testMeta = Meta{
	Name:    "olympics",
	Gen:     42,
	Version: "00deadbeef001234",
	Columns: []string{"Nation", "City", "Year"},
}

var testRows = [][]string{
	{"Greece", "Athens", "1896"},
	{"France", "Paris", "1900"},
	{"Greece", "Athens", "2004"},
	{"Japan", "Tokyo", "1964"},
}

func TestSegmentRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg-001.seg")
	if err := Write(nil, path, testMeta, testRows, nil); err != nil {
		t.Fatalf("Write: %v", err)
	}
	m, rows, zones, err := Read(nil, path)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if m.Name != testMeta.Name || m.Gen != testMeta.Gen || m.Version != testMeta.Version {
		t.Fatalf("meta round trip: %+v", m)
	}
	if zones != nil {
		t.Fatalf("segment written without zones decoded %d zone columns", len(zones))
	}
	if len(m.Columns) != 3 || m.Columns[1] != "City" {
		t.Fatalf("columns round trip: %v", m.Columns)
	}
	if m.Rows != len(testRows) || len(rows) != len(testRows) {
		t.Fatalf("rows = %d/%d, want %d", m.Rows, len(rows), len(testRows))
	}
	for r := range testRows {
		for c := range testRows[r] {
			if rows[r][c] != testRows[r][c] {
				t.Fatalf("cell (%d,%d) = %q, want %q", r, c, rows[r][c], testRows[r][c])
			}
		}
	}
	// The decoded rows must build a valid table.
	tb, err := table.New(m.Name, m.Columns, rows)
	if err != nil {
		t.Fatalf("table.New over decoded rows: %v", err)
	}
	if tb.NumRows() != 4 || tb.Raw(3, 1) != "Tokyo" {
		t.Fatalf("rebuilt table wrong: %d rows", tb.NumRows())
	}
}

func TestSegmentEmptyTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.seg")
	m := Meta{Name: "empty", Gen: 1, Version: "v", Columns: []string{"A", "B"}}
	if err := Write(nil, path, m, nil, nil); err != nil {
		t.Fatal(err)
	}
	got, rows, _, err := Read(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 0 || len(rows) != 0 || len(got.Columns) != 2 {
		t.Fatalf("empty round trip: %+v, %d rows", got, len(rows))
	}
}

func TestSegmentChecksumDetectsFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.seg")
	if err := Write(nil, path, testMeta, testRows, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{len(magic) + 4, len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x01
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := Read(nil, path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: err=%v, want ErrCorrupt", off, err)
		}
	}
	// Truncation must also be rejected.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Read(nil, path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated segment: err=%v, want ErrCorrupt", err)
	}
	if err := os.WriteFile(path, []byte("nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Read(nil, path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: err=%v, want ErrCorrupt", err)
	}
}

func TestSegmentZoneFooterRoundTrip(t *testing.T) {
	tb, err := table.New(testMeta.Name, testMeta.Columns, testRows)
	if err != nil {
		t.Fatal(err)
	}
	zones := tb.ZoneSnapshot()
	if len(zones) != len(testMeta.Columns) {
		t.Fatalf("snapshot covers %d of %d columns", len(zones), len(testMeta.Columns))
	}
	path := filepath.Join(t.TempDir(), "zones.seg")
	if err := Write(nil, path, testMeta, testRows, zones); err != nil {
		t.Fatalf("Write: %v", err)
	}
	_, _, got, err := Read(nil, path)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(got) != len(zones) {
		t.Fatalf("decoded %d zone columns, want %d", len(got), len(zones))
	}
	for c := range zones {
		if len(got[c]) != len(zones[c]) {
			t.Fatalf("col %d: %d zones, want %d", c, len(got[c]), len(zones[c]))
		}
		for i := range zones[c] {
			w, g := zones[c][i], got[c][i]
			sameNum := (g.Min == w.Min || (g.Min != g.Min && w.Min != w.Min)) &&
				(g.Max == w.Max || (g.Max != g.Max && w.Max != w.Max))
			if !sameNum || g.KeyMin != w.KeyMin || g.KeyMax != w.KeyMax ||
				g.NumCount != w.NumCount || g.NaNCount != w.NaNCount || g.EmptyCount != w.EmptyCount {
				t.Fatalf("col %d zone %d round trip: got %+v want %+v", c, i, g, w)
			}
		}
	}
	// The decoded footer must install cleanly on a rebuilt table.
	tb2, err := table.New(testMeta.Name, testMeta.Columns, testRows)
	if err != nil {
		t.Fatal(err)
	}
	tb2.InstallZoneMaps(got)
	for c := range testMeta.Columns {
		if !tb2.ZonesBuilt(c) {
			t.Fatalf("col %d zones not installed from decoded footer", c)
		}
	}
}

func TestSegmentZoneFooterColumnMismatch(t *testing.T) {
	// A footer covering a different number of columns than the header is
	// structural corruption, even when the checksum passes.
	tb, err := table.New(testMeta.Name, testMeta.Columns, testRows)
	if err != nil {
		t.Fatal(err)
	}
	zones := tb.ZoneSnapshot()[:2]
	path := filepath.Join(t.TempDir(), "bad-zones.seg")
	if err := Write(nil, path, testMeta, testRows, zones); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Read(nil, path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("partial zone footer: err=%v, want ErrCorrupt", err)
	}
}

func TestSegmentSchema1BackwardCompat(t *testing.T) {
	// Hand-encode a schema-1 body (rows only, no zone footer): old
	// segments written before the footer existed must still decode,
	// with nil zones.
	var body []byte
	body = binary.AppendUvarint(body, schemaV1)
	body = appendString(body, "legacy")
	body = binary.AppendUvarint(body, 7)
	body = appendString(body, "vv")
	body = binary.AppendUvarint(body, 1) // ncols
	body = appendString(body, "A")
	body = binary.AppendUvarint(body, 2) // nrows
	body = binary.AppendUvarint(body, 1) // dictLen
	body = appendString(body, "x")
	body = binary.AppendUvarint(body, 0) // row 0 -> dict[0]
	body = binary.AppendUvarint(body, 0) // row 1 -> dict[0]

	buf := make([]byte, 0, len(magic)+4+len(body))
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, castagnoli))
	buf = append(buf, body...)
	path := filepath.Join(t.TempDir(), "v1.seg")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	m, rows, zones, err := Read(nil, path)
	if err != nil {
		t.Fatalf("schema-1 segment: %v", err)
	}
	if m.Name != "legacy" || m.Gen != 7 || m.Rows != 2 || len(rows) != 2 || rows[1][0] != "x" {
		t.Fatalf("schema-1 decode: %+v, rows %v", m, rows)
	}
	if zones != nil {
		t.Fatalf("schema-1 segment decoded zones: %v", zones)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m, ok, err := LoadManifest(nil, dir)
	if err != nil || ok || m != nil {
		t.Fatalf("fresh dir: %v %v %v", m, ok, err)
	}
	want := &Manifest{
		Gen:    99,
		WALSeq: 7,
		Tables: []TableRef{
			{Name: "olympics", File: "seg-0000000000000063-0000.seg", Gen: 98, Version: "ab", Rows: 4, Cols: 3},
		},
	}
	if err := WriteManifest(nil, dir, want); err != nil {
		t.Fatalf("WriteManifest: %v", err)
	}
	got, ok, err := LoadManifest(nil, dir)
	if err != nil || !ok {
		t.Fatalf("LoadManifest: %v %v", ok, err)
	}
	if got.Gen != 99 || got.WALSeq != 7 || len(got.Tables) != 1 || got.Tables[0].File != want.Tables[0].File {
		t.Fatalf("manifest round trip: %+v", got)
	}
	// Overwrite is atomic-replace, old content fully gone.
	want.Gen = 100
	want.Tables = nil
	if err := WriteManifest(nil, dir, want); err != nil {
		t.Fatal(err)
	}
	got, _, err = LoadManifest(nil, dir)
	if err != nil || got.Gen != 100 || len(got.Tables) != 0 {
		t.Fatalf("manifest rewrite: %+v %v", got, err)
	}
	// Torn manifest bytes are a hard error, not a silent fresh start.
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{\"schema\":1,"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadManifest(nil, dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn manifest: err=%v, want ErrCorrupt", err)
	}
}
