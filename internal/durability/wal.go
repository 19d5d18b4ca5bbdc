// Package durability makes partitions restartable: a per-partition
// write-ahead *command log* (a logical log of stored-procedure invocations,
// valid because executors are deterministic serial H-Store-style threads),
// periodic snapshots built on the storage bucket encoding, log-segment
// rotation with truncation at snapshot boundaries, and a recovery path that
// loads the latest snapshot and replays the log tail through the procedure
// registry — the H-Store/VoltDB command-logging design (Malviya et al.).
//
// Writes are acknowledged by *group commit*: appends accumulate in an OS
// buffer and a background committer fsyncs them in batches (configurable
// interval and batch size), amortizing the fsync cost across transactions.
// A per-append sync mode exists for comparison (see
// BenchmarkDurabilityOverhead).
package durability

//pstore:deterministic — log records and snapshots are replayed and
// checksum-compared across crash/recovery runs; encoding must be byte-stable.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrClosed is returned for appends to a closed log.
var ErrClosed = errors.New("durability: log closed")

// Record kinds. A command log mostly holds transactions; bucket-in/out
// records make migration ownership handoffs durable, so a partition's log
// is self-contained: replaying it never needs another partition's history.
const (
	kindTxn       = 1 // a committed stored-procedure invocation
	kindBucketIn  = 2 // bucket received from a peer, full contents inline
	kindBucketOut = 3 // bucket handed off to a peer
	kindPut       = 4 // a direct row load (cluster.LoadRows through a feed)
)

// Exported record kinds for consumers of the tail reader (ReadFrom) — the
// replication feed re-encodes durable records as ship frames.
const (
	KindTxn       = kindTxn
	KindBucketIn  = kindBucketIn
	KindBucketOut = kindBucketOut
	KindPut       = kindPut
)

// Record is one durable log entry.
type Record struct {
	// Seq is the record's log sequence number, contiguous per partition.
	// It doubles as the replication LSN: a replica subscribed at LSN n can
	// be caught up from disk by streaming records with Seq > n.
	Seq  uint64            `json:"s,omitempty"`
	Kind int               `json:"k"`
	Proc string            `json:"p,omitempty"`
	Key  string            `json:"key,omitempty"`
	Tab  string            `json:"t,omitempty"` // kindPut's table
	Args map[string]string `json:"a,omitempty"`
	// Bucket and Data carry migration handoffs (kindBucketIn/kindBucketOut).
	Bucket int             `json:"b,omitempty"`
	Data   json.RawMessage `json:"d,omitempty"`
}

// walOptions tunes the log. Zero values select the defaults documented on
// Options.
type walOptions struct {
	syncEvery    bool
	syncInterval time.Duration
	batchSize    int
	segmentBytes int64
}

// wal is a segmented append-only record log with group commit. Appends come
// from a single writer (the partition's executor goroutine); the background
// committer is the only other goroutine touching the file, and all shared
// state is guarded by mu.
type wal struct {
	dir  string
	opts walOptions

	mu      sync.Mutex
	file    *os.File
	w       *bufio.Writer
	seg     int    // current segment number
	segSize int64  // bytes written to the current segment
	fileGen uint64 // bumped whenever file changes; written under mu AND syncMu
	pending []func(error)
	closed  bool
	crashed bool

	// syncMu serializes fsyncs that run outside mu (the pipelined half of
	// group commit, see flushDetachLocked/fsyncDetached) against segment
	// rotation and close, which retire the file handle. Lock order:
	// mu > syncMu — syncMu may be taken under mu, never the reverse.
	syncMu sync.Mutex
	genErr error // outcome of the sync that retired the last fileGen; guarded by syncMu

	wake chan struct{} // nudges the committer when a batch fills
	stop chan struct{}
	done chan struct{}
}

const (
	defaultSyncInterval = 2 * time.Millisecond
	defaultBatchSize    = 64
	defaultSegmentBytes = 4 << 20
	frameHeaderSize     = 8 // uint32 length + uint32 crc32
)

func segmentName(n int) string  { return fmt.Sprintf("wal-%08d.log", n) }
func snapshotName(n int) string { return fmt.Sprintf("snap-%08d.snap", n) }

// parseNumbered extracts N from names like prefix-N.ext.
func parseNumbered(name, prefix, ext string) (int, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ext) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), ext)
	n := 0
	if mid == "" {
		return 0, false
	}
	for _, c := range mid {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// listNumbered returns the sorted segment/snapshot numbers in dir.
func listNumbered(dir, prefix, ext string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range entries {
		if n, ok := parseNumbered(e.Name(), prefix, ext); ok {
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out, nil
}

// openWAL opens the log in dir, starting a fresh segment after the highest
// existing one (recovery never appends to a possibly-torn tail).
func openWAL(dir string, opts walOptions) (*wal, error) {
	if opts.syncInterval <= 0 {
		opts.syncInterval = defaultSyncInterval
	}
	if opts.batchSize <= 0 {
		opts.batchSize = defaultBatchSize
	}
	if opts.segmentBytes <= 0 {
		opts.segmentBytes = defaultSegmentBytes
	}
	segs, err := listNumbered(dir, "wal-", ".log")
	if err != nil {
		return nil, err
	}
	next := 0
	if len(segs) > 0 {
		next = segs[len(segs)-1] + 1
	}
	l := &wal{
		dir:  dir,
		opts: opts,
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if err := l.openSegmentLocked(next); err != nil {
		return nil, err
	}
	go l.committer()
	return l, nil
}

// openSegmentLocked switches writing to segment n. Callers hold mu (or own
// the log exclusively during open).
func (l *wal) openSegmentLocked(n int) error {
	if l.file != nil {
		if l.w != nil {
			if err := l.w.Flush(); err != nil {
				return err
			}
		}
		// Retiring the handle must be fenced against a pipelined fsync in
		// flight outside mu: sync-mark-close under syncMu, so a detached
		// fsync either beat the rotation or sees the generation bump and
		// skips the closed handle (this sync already covered its bytes).
		l.syncMu.Lock()
		err := l.file.Sync()
		if cerr := l.file.Close(); err == nil {
			err = cerr
		}
		l.fileGen++
		l.genErr = err
		l.syncMu.Unlock()
		if err != nil {
			return err
		}
	}
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(n)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.file = f
	l.w = bufio.NewWriterSize(f, 1<<16)
	l.seg = n
	l.segSize = 0
	return syncDir(l.dir)
}

// syncDir fsyncs a directory so renames/creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some filesystems reject fsync on directories; that is acceptable —
	// the data files themselves are synced.
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}

// append writes the record and registers onDurable to run after the next
// fsync covering it. onDurable may be nil (the caller will force a sync and
// does not need a callback).
func (l *wal) append(rec *Record, onDurable func(error)) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if _, err := l.w.Write(hdr[:]); err != nil {
		l.mu.Unlock()
		return err
	}
	if _, err := l.w.Write(payload); err != nil {
		l.mu.Unlock()
		return err
	}
	l.segSize += int64(frameHeaderSize + len(payload))
	rotate := l.segSize >= l.opts.segmentBytes
	if rotate {
		if err := l.openSegmentLocked(l.seg + 1); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	// Eager wake: the first callback of a batch starts a group commit
	// immediately instead of waiting out the sync-interval tick. Everything
	// appended while that commit's fsync is in flight (the committer holds
	// syncMu, not mu) accumulates into the next batch, so the batch size
	// self-tunes to the fsync latency and the timer only matters when the
	// log is idle.
	eager := onDurable != nil && len(l.pending) == 0
	if onDurable != nil {
		l.pending = append(l.pending, onDurable)
	}
	if l.opts.syncEvery {
		cbs, err := l.syncLocked()
		l.mu.Unlock()
		runDurableCbs(cbs, err)
		return err
	}
	full := len(l.pending) >= l.opts.batchSize
	l.mu.Unlock()
	if eager || full {
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
	return nil
}

// requestSync registers cb to run after the next fsync covering everything
// appended so far and nudges the committer — the exported group-commit hook
// behind Manager.FlushAsync. Unlike sync it never waits for the fsync: a
// flush request means "tell me when everything to date is durable", which
// is exactly the coverage the pending-callback list already provides.
func (l *wal) requestSync(cb func(error)) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		cb(ErrClosed)
		return
	}
	l.pending = append(l.pending, cb)
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// sync forces buffered records to stable storage, acking their callbacks.
// The fsync runs outside mu, so appends proceed while it is in flight.
func (l *wal) sync() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	cbs, f, gen, err := l.flushDetachLocked()
	l.mu.Unlock()
	return l.fsyncDetached(cbs, f, gen, err)
}

// flushDetachLocked pushes buffered records to the OS and detaches the
// pending callbacks plus the file handle and generation they need fsynced,
// for the caller to complete OUTSIDE mu via fsyncDetached. Splitting flush
// from fsync is what pipelines group commit: appenders retake mu while the
// fsync — the slow half — runs, so batch N+1 accumulates during batch N's
// fsync instead of queueing behind it.
func (l *wal) flushDetachLocked() (cbs []func(error), f *os.File, gen uint64, err error) {
	err = l.w.Flush()
	cbs = l.pending
	l.pending = nil
	return cbs, l.file, l.fileGen, err
}

// fsyncDetached completes a detached flush: fsync outside mu, then deliver
// the outcome to the callbacks. If the handle was retired since the flush
// (generation mismatch — rotation, close or crash), its retiring sync
// already decided the fate of the flushed bytes, so the outcome of THAT
// sync is delivered instead of fsyncing a closed handle.
func (l *wal) fsyncDetached(cbs []func(error), f *os.File, gen uint64, err error) error {
	l.syncMu.Lock()
	if err == nil {
		if gen == l.fileGen {
			err = f.Sync()
		} else {
			err = l.genErr
		}
	}
	l.syncMu.Unlock()
	runDurableCbs(cbs, err)
	return err
}

// syncLocked flushes and fsyncs under mu, detaching the pending durable
// callbacks for the CALLER to run after releasing mu. Callbacks must never
// run under the log's mutex: a replication feed's callback takes the feed's
// own lock, which the feed may hold while appending here — running the
// callback inline would deadlock.
func (l *wal) syncLocked() ([]func(error), error) {
	var err error
	if ferr := l.w.Flush(); ferr != nil {
		err = ferr
	}
	if err == nil {
		if serr := l.file.Sync(); serr != nil {
			err = serr
		}
	}
	cbs := l.pending
	l.pending = nil
	return cbs, err
}

// runDurableCbs delivers a sync's outcome to its detached callbacks.
func runDurableCbs(cbs []func(error), err error) {
	for _, cb := range cbs {
		cb(err)
	}
}

// committer is the group-commit loop: it syncs on a timer and whenever a
// batch fills.
func (l *wal) committer() {
	defer close(l.done)
	ticker := time.NewTicker(l.opts.syncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-ticker.C:
		case <-l.wake:
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return
		}
		if len(l.pending) == 0 && l.w.Buffered() == 0 {
			l.mu.Unlock()
			continue
		}
		cbs, f, gen, err := l.flushDetachLocked()
		l.mu.Unlock()
		l.fsyncDetached(cbs, f, gen, err)
	}
}

// rotate closes the current segment and starts the next, returning the new
// segment's number. Pending records are synced first, so everything strictly
// before the returned segment is durable.
func (l *wal) rotate() (int, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	cbs, err := l.syncLocked()
	if err == nil {
		err = l.openSegmentLocked(l.seg + 1)
	}
	seg := l.seg
	l.mu.Unlock()
	runDurableCbs(cbs, err)
	if err != nil {
		return 0, err
	}
	return seg, nil
}

// truncateBefore deletes segments numbered below seg (the snapshot
// boundary).
func (l *wal) truncateBefore(seg int) error {
	segs, err := listNumbered(l.dir, "wal-", ".log")
	if err != nil {
		return err
	}
	for _, n := range segs {
		if n < seg {
			if err := os.Remove(filepath.Join(l.dir, segmentName(n))); err != nil {
				return err
			}
		}
	}
	return syncDir(l.dir)
}

// close flushes and closes the log. Safe to call twice.
func (l *wal) close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	var err error
	var cbs []func(error)
	if !l.crashed {
		cbs, err = l.syncLocked()
		l.syncMu.Lock()
		if cerr := l.file.Close(); err == nil {
			err = cerr
		}
		l.fileGen++
		l.genErr = err
		l.syncMu.Unlock()
	}
	l.mu.Unlock()
	runDurableCbs(cbs, err)
	close(l.stop)
	<-l.done
	return err
}

// crash abandons buffered (un-fsynced) data and closes the file without
// flushing — a test hook simulating the process dying. Acked records are
// already on disk; everything still in the bufio buffer is lost, exactly
// like a kill -9.
func (l *wal) crash() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.crashed = true
	cbs := l.pending
	l.pending = nil
	l.syncMu.Lock()
	l.file.Close() // drop the bufio buffer on the floor
	l.fileGen++
	l.genErr = ErrClosed // un-fsynced flushed bytes are lost, like the buffer
	l.syncMu.Unlock()
	l.mu.Unlock()
	for _, cb := range cbs {
		cb(ErrClosed)
	}
	close(l.stop)
	<-l.done
}

// replaySegments streams every intact record of the segments numbered ≥
// fromSeg, in order, to fn. A corrupt or torn record ends the replay of the
// whole log silently (torn tail semantics): nothing after it was
// acknowledged, so nothing after it may be replayed either.
func replaySegments(dir string, fromSeg int, fn func(*Record) error) error {
	segs, err := listNumbered(dir, "wal-", ".log")
	if err != nil {
		return err
	}
	for _, n := range segs {
		if n < fromSeg {
			continue
		}
		intact, err := replayOneSegment(filepath.Join(dir, segmentName(n)), fn)
		if err != nil {
			return err
		}
		if !intact {
			return nil // torn tail: ignore any later segments too
		}
	}
	return nil
}

// replayOneSegment reads one segment, reporting whether it ended cleanly.
func replayOneSegment(path string, fn func(*Record) error) (intact bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var hdr [frameHeaderSize]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return true, nil
			}
			return false, nil // torn header
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length > 1<<30 {
			return false, nil // garbage length: treat as torn
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return false, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return false, nil // corrupt record
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return false, fmt.Errorf("durability: undecodable record in %s: %w", path, err)
		}
		if err := fn(&rec); err != nil {
			return false, err
		}
	}
}
