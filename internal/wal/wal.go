// Package wal implements the append-only write-ahead log under the
// versioned table store's durability layer. One WAL value manages one
// log file; rotation (switching to a fresh file at checkpoint time) is
// the caller's job, as is assigning meaning to record tags.
//
// On-disk framing, in the <checksum><tag><encoded-data> style:
//
//	<len uint32 LE> <crc32c uint32 LE> <tag byte> <payload>
//
// len counts the tag byte plus the payload (so len >= 1); the CRC32C
// (Castagnoli) covers the same tag+payload span. The framing gives the
// recovery scan an unambiguous policy: a record that runs past the end
// of the file, a half-written header, or a checksum failure on the
// final record are all torn tails from a crash mid-append and are
// truncated away; a checksum failure with intact bytes after it cannot
// be a torn write and is reported as ErrCorrupt.
//
// Appends are durable when they return: each Append blocks until an
// fsync covering its record has completed. A group-commit window
// batches those fsyncs — appends landing within the window ride one
// sync — without ever holding the buffer lock across the disk flush,
// so concurrent appenders keep buffering while a sync is in flight.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"nlexplain/internal/fault"
)

// ErrCorrupt reports checksum or framing damage before the final
// record of a log — damage that truncating a torn tail cannot explain.
// Recovery must fail hard rather than silently drop acknowledged
// mutations.
var ErrCorrupt = errors.New("wal: corrupt record before end of log")

// ErrClosed is returned by appends against a closed WAL.
var ErrClosed = errors.New("wal: closed")

const (
	headerBytes = 8 // uint32 length + uint32 crc32c
	// maxRecordBytes bounds a single record's tag+payload span. A
	// length field beyond it is framing damage, not a big record.
	maxRecordBytes = 1 << 30
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one decoded log record: a tag byte naming the mutation
// kind and the caller-encoded payload. Data aliases the scan buffer.
type Record struct {
	Tag  byte
	Data []byte
}

// ScanResult reports what a Scan found: the decoded records, the byte
// length of the valid prefix, and how many torn-tail bytes follow it.
type ScanResult struct {
	Records []Record
	// Valid is the length in bytes of the prefix holding the decoded
	// records. Appending may resume at this offset after truncation.
	Valid int64
	// Truncated is the number of torn-tail bytes past Valid (zero for
	// a cleanly closed log).
	Truncated int64
}

// Scan reads and verifies every record of the log file at path through
// fsys (nil means the OS) without opening it for writing. Torn tails
// are reported, not errors; mid-log damage is ErrCorrupt.
func Scan(fsys fault.FS, path string) (*ScanResult, error) {
	data, err := fault.Or(fsys).ReadFile(path)
	if err != nil {
		return nil, err
	}
	recs, valid, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &ScanResult{
		Records:   recs,
		Valid:     valid,
		Truncated: int64(len(data)) - valid,
	}, nil
}

// parse decodes the valid record prefix of a log image, applying the
// torn-tail-versus-corruption policy described in the package comment.
func parse(data []byte) (recs []Record, valid int64, err error) {
	i := 0
	for {
		rest := len(data) - i
		if rest == 0 {
			return recs, int64(i), nil
		}
		if rest < headerBytes {
			// Half-written header: torn tail.
			return recs, int64(i), nil
		}
		n := binary.LittleEndian.Uint32(data[i:])
		sum := binary.LittleEndian.Uint32(data[i+4:])
		if n == 0 {
			// A record always carries at least its tag byte; a zero
			// length is fill from an interrupted header write.
			return recs, int64(i), nil
		}
		if n > maxRecordBytes {
			return nil, 0, fmt.Errorf("%w: record length %d at offset %d", ErrCorrupt, n, i)
		}
		end := i + headerBytes + int(n)
		if end > len(data) {
			// Record body ran past EOF: torn tail.
			return recs, int64(i), nil
		}
		body := data[i+headerBytes : end]
		if crc32.Checksum(body, castagnoli) != sum {
			if end == len(data) {
				// The final record's bytes are all present but the
				// checksum fails: a torn (partially persisted) tail
				// write. Truncate it.
				return recs, int64(i), nil
			}
			return nil, 0, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, i)
		}
		recs = append(recs, Record{Tag: body[0], Data: body[1:]})
		i = end
	}
}

// Stats is a point-in-time snapshot of a WAL's counters.
type Stats struct {
	Appends       uint64 // records appended
	AppendedBytes uint64 // framed bytes appended (headers included)
	Syncs         uint64 // fsync batches issued
	Size          int64  // current file size in bytes, buffered included
}

// WAL is an open, appendable log file with group-commit fsync.
type WAL struct {
	path   string
	window time.Duration

	// mu guards the buffered writer and sequencing state. It is never
	// held across an fsync: syncTo flushes under mu, then releases it
	// for the disk flush (serialized by syncMu), so appenders keep
	// buffering while a sync is in flight.
	mu        sync.Mutex
	cond      *sync.Cond // signals syncedSeq advance or sticky error
	fs        fault.FS
	f         fault.File
	buf       []byte // pending framed records not yet written to f
	writeSeq  uint64 // records accepted into buf
	syncedSeq uint64 // records covered by a completed fsync
	size      int64  // file size including buffered bytes
	err       error  // sticky first failure
	closed    bool

	syncMu sync.Mutex // serializes flush+fsync passes

	kick chan struct{} // wakes the group-commit loop
	quit chan struct{}
	done chan struct{}

	appends       atomic.Uint64
	appendedBytes atomic.Uint64
	syncs         atomic.Uint64
}

// Open opens path for appending, creating it if absent. Any existing
// records are scanned and returned; a torn tail is truncated off the
// file (and fsynced) before the WAL accepts appends, so the file never
// grows past damage. window is the group-commit window: appends
// arriving within it share one fsync. A non-positive window syncs
// every append before it returns. All I/O goes through fsys (nil
// means the OS); the durability layer threads its fault-injection
// filesystem through here.
func Open(fsys fault.FS, path string, window time.Duration) (*WAL, *ScanResult, error) {
	fsys = fault.Or(fsys)
	res := &ScanResult{}
	if data, err := fsys.ReadFile(path); err == nil {
		recs, valid, perr := parse(data)
		if perr != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, perr)
		}
		res.Records = recs
		res.Valid = valid
		res.Truncated = int64(len(data)) - valid
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, err
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if res.Truncated > 0 {
		if err := f.Truncate(res.Valid); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("truncating torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(res.Valid, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, nil, err
	}
	w := &WAL{
		path:   path,
		window: window,
		fs:     fsys,
		f:      f,
		size:   res.Valid,
		kick:   make(chan struct{}, 1),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	go w.commitLoop()
	return w, res, nil
}

// Append frames tag+data, appends the record, and blocks until an
// fsync covers it. Safe for concurrent use; concurrent appends within
// the group-commit window share one fsync.
func (w *WAL) Append(tag byte, data []byte) error {
	n := 1 + len(data)
	if n > maxRecordBytes {
		return fmt.Errorf("wal: record of %d bytes exceeds limit", n)
	}
	var hdr [headerBytes + 1]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(n))
	hdr[8] = tag
	sum := crc32.Update(crc32.Checksum(hdr[8:9], castagnoli), castagnoli, data)
	binary.LittleEndian.PutUint32(hdr[4:], sum)

	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	w.buf = append(w.buf, hdr[:]...)
	w.buf = append(w.buf, data...)
	w.writeSeq++
	seq := w.writeSeq
	w.size += int64(headerBytes + n)
	w.mu.Unlock()

	w.appends.Add(1)
	w.appendedBytes.Add(uint64(headerBytes + n))

	if w.window <= 0 {
		return w.syncTo(seq)
	}
	select {
	case w.kick <- struct{}{}:
	default:
	}
	w.mu.Lock()
	for w.err == nil && w.syncedSeq < seq {
		w.cond.Wait()
	}
	err := w.err
	w.mu.Unlock()
	return err
}

// Sync flushes and fsyncs everything appended so far.
func (w *WAL) Sync() error {
	w.mu.Lock()
	seq := w.writeSeq
	w.mu.Unlock()
	return w.syncTo(seq)
}

// syncTo makes the fsync horizon reach at least seq. The buffered
// bytes are written under mu, but the fsync itself runs with mu
// released (only syncMu held), so appenders are never blocked on the
// disk.
func (w *WAL) syncTo(seq uint64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()

	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if w.syncedSeq >= seq {
		w.mu.Unlock()
		return nil
	}
	target := w.writeSeq
	pending := w.buf
	w.buf = nil
	f := w.f
	w.mu.Unlock()

	var err error
	if len(pending) > 0 {
		_, err = f.Write(pending)
	}
	if err == nil {
		err = f.Sync()
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		w.fail(err)
		return err
	}
	if target > w.syncedSeq {
		w.syncedSeq = target
	}
	w.syncs.Add(1)
	w.cond.Broadcast()
	return nil
}

// fail records the sticky error and wakes every waiter. Caller holds mu.
func (w *WAL) fail(err error) {
	if w.err == nil {
		w.err = err
	}
	w.cond.Broadcast()
}

// commitLoop is the group-commit scheduler: a kick from the first
// append of a batch starts the window timer; when it fires, one fsync
// covers every append that landed in the meantime.
func (w *WAL) commitLoop() {
	defer close(w.done)
	if w.window <= 0 {
		// Synchronous mode: Append syncs inline.
		<-w.quit
		return
	}
	t := time.NewTimer(w.window)
	if !t.Stop() {
		<-t.C
	}
	for {
		select {
		case <-w.quit:
			return
		case <-w.kick:
		}
		t.Reset(w.window)
		select {
		case <-w.quit:
			t.Stop()
			return
		case <-t.C:
		}
		w.Sync()
	}
}

// Close flushes and fsyncs all pending records, then closes the file.
// Further appends fail with ErrClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	seq := w.writeSeq
	w.mu.Unlock()

	close(w.quit)
	<-w.done

	err := w.syncTo(seq)
	w.mu.Lock()
	f := w.f
	w.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Path returns the log file's path.
func (w *WAL) Path() string { return w.path }

// Size returns the current log size in bytes, buffered appends
// included.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Stats returns a snapshot of the WAL's counters.
func (w *WAL) Stats() Stats {
	return Stats{
		Appends:       w.appends.Load(),
		AppendedBytes: w.appendedBytes.Load(),
		Syncs:         w.syncs.Load(),
		Size:          w.Size(),
	}
}
