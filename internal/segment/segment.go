// Package segment implements the immutable columnar segment files and
// the manifest that the store's checkpointer compacts its write-ahead
// log into. One segment file holds one table snapshot: raw cell text
// stored column-major behind a per-column dictionary (first-appearance
// order), so decoding hands back row slices whose repeated cells share
// one backing string — the same interning the in-memory table build
// performs — and deserializes straight into the typed column vectors
// via table.New.
//
// Layout:
//
//	"WTQSEG1\n" <crc32c uint32 LE over body> <body>
//
// body, all integers uvarint, strings length-prefixed:
//
//	schema(=2) name gen version
//	ncols col... nrows
//	per column: dictLen dict... then nrows dictionary indexes
//	zone footer: nzcols (0, or = ncols), then per column nzones and
//	per zone: min max (float64 bits, 8 bytes LE each) keyMin keyMax
//	numCount nanCount emptyCount
//
// The zone footer (schema 2) carries the per-column zone maps of the
// snapshot so recovery installs them without rescanning the columns.
// It lives under the same checksum as the rest of the body. Schema-1
// segments (no footer) remain readable — they decode with nil zones
// and the table rebuilds its maps lazily.
//
// Files are written atomically (tmp + fsync + rename + dir fsync) and
// never modified after that, so a reader either sees a whole valid
// segment or none at all; the checksum turns silent disk damage into
// a hard recovery error instead of a wrong table.
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"

	"nlexplain/internal/fault"
	"nlexplain/internal/table"
)

// ErrCorrupt reports a segment file whose magic, checksum or framing
// is damaged. Recovery treats it as fatal: a checkpointed table that
// cannot be read back intact must not be silently dropped.
var ErrCorrupt = errors.New("segment: corrupt file")

const (
	magic      = "WTQSEG1\n"
	schemaV1   = 1       // rows only, no zone footer
	schemaSeg  = 2       // rows + zone-map footer
	maxStrings = 1 << 30 // sanity bound on any length field
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Meta describes the table snapshot a segment holds.
type Meta struct {
	Name    string
	Gen     uint64 // store generation of the snapshot
	Version string // content-hash version of the snapshot
	Columns []string
	Rows    int
}

// Write encodes one table snapshot into path atomically. rows is raw
// cell text, row-major, each row len(m.Columns) wide; zones, when
// non-nil, is the snapshot's per-column zone maps (len(m.Columns)
// columns wide) persisted in the checksummed footer. The slices are
// read, never retained. All I/O goes through fsys (nil means the OS).
func Write(fsys fault.FS, path string, m Meta, rows [][]string, zones [][]table.Zone) error {
	fsys = fault.Or(fsys)
	body := appendBody(nil, m, rows, zones)
	buf := make([]byte, 0, len(magic)+4+len(body))
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, castagnoli))
	buf = append(buf, body...)

	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer fsys.Remove(tmp.Name())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

func appendBody(b []byte, m Meta, rows [][]string, zones [][]table.Zone) []byte {
	b = binary.AppendUvarint(b, schemaSeg)
	b = appendString(b, m.Name)
	b = binary.AppendUvarint(b, m.Gen)
	b = appendString(b, m.Version)
	b = binary.AppendUvarint(b, uint64(len(m.Columns)))
	for _, c := range m.Columns {
		b = appendString(b, c)
	}
	b = binary.AppendUvarint(b, uint64(len(rows)))
	// Column-major with a per-column first-appearance dictionary.
	idx := make([]uint64, len(rows))
	dictIdx := make(map[string]uint64)
	for c := range m.Columns {
		clear(dictIdx)
		var dict []string
		for r, row := range rows {
			cell := row[c]
			di, ok := dictIdx[cell]
			if !ok {
				di = uint64(len(dict))
				dict = append(dict, cell)
				dictIdx[cell] = di
			}
			idx[r] = di
		}
		b = binary.AppendUvarint(b, uint64(len(dict)))
		for _, s := range dict {
			b = appendString(b, s)
		}
		for _, di := range idx {
			b = binary.AppendUvarint(b, di)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(zones)))
	for _, zs := range zones {
		b = binary.AppendUvarint(b, uint64(len(zs)))
		for i := range zs {
			z := &zs[i]
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(z.Min))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(z.Max))
			b = appendString(b, z.KeyMin)
			b = appendString(b, z.KeyMax)
			b = binary.AppendUvarint(b, uint64(z.NumCount))
			b = binary.AppendUvarint(b, uint64(z.NaNCount))
			b = binary.AppendUvarint(b, uint64(z.EmptyCount))
		}
	}
	return b
}

// Read decodes the segment file at path, verifying the checksum. The
// returned rows are row-major raw cell text; cells repeating a value
// within a column share one backing string (the dictionary entry).
// zones is the decoded per-column zone footer — nil for schema-1
// segments or a schema-2 footer written without zones. The file is
// read through fsys (nil means the OS).
func Read(fsys fault.FS, path string) (Meta, [][]string, [][]table.Zone, error) {
	var m Meta
	data, err := fault.Or(fsys).ReadFile(path)
	if err != nil {
		return m, nil, nil, err
	}
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != magic {
		return m, nil, nil, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, path)
	}
	sum := binary.LittleEndian.Uint32(data[len(magic):])
	body := data[len(magic)+4:]
	if crc32.Checksum(body, castagnoli) != sum {
		return m, nil, nil, fmt.Errorf("%w: %s: checksum mismatch", ErrCorrupt, path)
	}
	d := decoder{buf: body, path: path}
	schema := d.uvarint()
	if schema != schemaV1 && schema != schemaSeg {
		return m, nil, nil, fmt.Errorf("%w: %s: unknown schema %d", ErrCorrupt, path, schema)
	}
	m.Name = d.string()
	m.Gen = d.uvarint()
	m.Version = d.string()
	ncols := int(d.count())
	m.Columns = make([]string, 0, ncols)
	for i := 0; i < ncols && d.err == nil; i++ {
		m.Columns = append(m.Columns, d.string())
	}
	nrows := int(d.count())
	m.Rows = nrows
	if d.err != nil {
		return m, nil, nil, d.fail()
	}
	rows := make([][]string, nrows)
	cells := make([]string, nrows*ncols)
	for r := range rows {
		rows[r] = cells[r*ncols : (r+1)*ncols : (r+1)*ncols]
	}
	for c := 0; c < ncols; c++ {
		dictLen := int(d.count())
		dict := make([]string, 0, dictLen)
		for i := 0; i < dictLen && d.err == nil; i++ {
			dict = append(dict, d.string())
		}
		for r := 0; r < nrows; r++ {
			di := d.uvarint()
			if d.err != nil {
				break
			}
			if di >= uint64(len(dict)) {
				return m, nil, nil, fmt.Errorf("%w: %s: dictionary index %d out of range", ErrCorrupt, path, di)
			}
			rows[r][c] = dict[di]
		}
		if d.err != nil {
			return m, nil, nil, d.fail()
		}
	}
	var zones [][]table.Zone
	if schema >= schemaSeg {
		nzcols := int(d.count())
		if d.err == nil && nzcols != 0 && nzcols != ncols {
			return m, nil, nil, fmt.Errorf("%w: %s: zone footer covers %d of %d columns", ErrCorrupt, path, nzcols, ncols)
		}
		if nzcols != 0 {
			zones = make([][]table.Zone, nzcols)
			for c := 0; c < nzcols && d.err == nil; c++ {
				nz := int(d.count())
				zs := make([]table.Zone, 0, nz)
				for i := 0; i < nz && d.err == nil; i++ {
					var z table.Zone
					z.Min = d.float64()
					z.Max = d.float64()
					z.KeyMin = d.string()
					z.KeyMax = d.string()
					z.NumCount = int32(d.count())
					z.NaNCount = int32(d.count())
					z.EmptyCount = int32(d.count())
					zs = append(zs, z)
				}
				zones[c] = zs
			}
		}
	}
	if d.err != nil {
		return m, nil, nil, d.fail()
	}
	if len(d.buf) != 0 {
		return m, nil, nil, fmt.Errorf("%w: %s: %d trailing bytes", ErrCorrupt, path, len(d.buf))
	}
	return m, rows, zones, nil
}

// decoder walks a segment body, latching the first framing error.
type decoder struct {
	buf  []byte
	path string
	err  error
}

func (d *decoder) fail() error {
	return fmt.Errorf("%w: %s: %v", ErrCorrupt, d.path, d.err)
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = errors.New("truncated uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// count reads a uvarint that sizes an allocation, bounding it.
func (d *decoder) count() uint64 {
	v := d.uvarint()
	if d.err == nil && v > maxStrings {
		d.err = fmt.Errorf("implausible count %d", v)
		return 0
	}
	return v
}

// float64 reads fixed 8-byte little-endian IEEE-754 bits.
func (d *decoder) float64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.err = errors.New("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)) {
		d.err = fmt.Errorf("string of %d bytes exceeds remaining %d", n, len(d.buf))
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}
