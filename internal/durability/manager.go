package durability

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"pstore/internal/engine"
	"pstore/internal/logrec"
	"pstore/internal/storage"
)

// Options tunes a partition's durability manager.
type Options struct {
	// SyncEvery forces an fsync per append (per-transaction durability,
	// the slow baseline). Default false: group commit.
	SyncEvery bool
	// GroupCommitInterval is the group-commit fsync cadence. Default 2ms.
	GroupCommitInterval time.Duration
	// GroupCommitBatch syncs early once this many acks are pending.
	// Default 64.
	GroupCommitBatch int
	// SegmentBytes rotates the log when the active segment exceeds it.
	// Default 4 MiB.
	SegmentBytes int64
	// SnapshotInterval is how often the owner (the cluster) should snapshot
	// the partition and truncate the log. Zero disables periodic snapshots;
	// the log then only truncates at explicit snapshots (shutdown,
	// migration). The manager does not run the timer itself — snapshots
	// need exclusive partition access, which only the executor's owner can
	// arrange.
	SnapshotInterval time.Duration
}

// ReplayStats summarizes a recovery.
type ReplayStats struct {
	SnapshotLoaded bool
	Txns           int // command records re-executed
	BucketsIn      int // migration handoffs re-applied
	BucketsOut     int
	Skipped        int // records dropped (e.g. replay against an unowned bucket)
	// FromHandoff marks buckets whose ownership most recently arrived via a
	// bucket-in record (not the snapshot). The cluster uses it to pick the
	// winner when a crash mid-handoff leaves two partitions claiming one
	// bucket: the handoff receiver's copy carries the post-handoff writes.
	FromHandoff map[int]bool
}

// Manager is one partition's durability state: its directory of WAL
// segments and snapshots. Appends must come from the partition's executor
// goroutine (the engine guarantees this); Snapshot and Recover need
// exclusive partition access.
type Manager struct {
	dir  string
	part int
	opts Options
	log  *wal

	appended atomic.Int64
	// seq is the last assigned log sequence number (the replication LSN).
	// Appends are serialized by the caller — the partition's executor, or a
	// replication feed's append mutex — so a plain atomic counter stays
	// contiguous.
	seq atomic.Uint64
}

// Open creates or reopens the durability directory for a partition. Call
// Recover before starting the partition's executor when reopening existing
// state.
func Open(dir string, partition int, opts Options) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l, err := openWAL(dir, walOptions{
		syncEvery:    opts.SyncEvery,
		syncInterval: opts.GroupCommitInterval,
		batchSize:    opts.GroupCommitBatch,
		segmentBytes: opts.SegmentBytes,
	})
	if err != nil {
		return nil, err
	}
	return &Manager{dir: dir, part: partition, opts: opts, log: l}, nil
}

// Dir returns the manager's directory.
func (m *Manager) Dir() string { return m.dir }

// Appended returns the number of records appended since Open.
func (m *Manager) Appended() int64 { return m.appended.Load() }

// Fsyncs returns how many times the log's segment files have been fsynced.
func (m *Manager) Fsyncs() int64 { return m.log.fsyncs.Load() }

// Seq returns the last assigned log sequence number.
func (m *Manager) Seq() uint64 { return m.seq.Load() }

// SetBaseSeq aligns the manager's sequence counter so the next append gets
// n+1 — used after recovery and when a promoted replica opens a fresh log
// that must continue its primary's LSN space.
func (m *Manager) SetBaseSeq(n uint64) { m.seq.Store(n) }

// Log appends rec under the next LSN, which it stamps into rec.LSN. Bucket
// handoff records are fsynced before Log returns, so the handoff is on disk
// when it does. Other records ride the group commit: onDurable, if non-nil,
// runs once the record is on stable storage or its write has failed, a
// failure Log returns included. Without onDurable the record starts no
// group commit of its own; the next one, or a Flush, makes it durable.
func (m *Manager) Log(rec *logrec.Record, onDurable func(lsn uint64, err error)) error {
	m.appended.Add(1)
	lsn := m.seq.Add(1)
	rec.LSN = lsn
	var cb func(error)
	if onDurable != nil {
		cb = func(err error) { onDurable(lsn, err) }
	}
	if err := m.log.append(rec, cb); err != nil {
		if onDurable != nil {
			onDurable(lsn, err)
		}
		return err
	}
	if rec.Kind == logrec.BucketIn || rec.Kind == logrec.BucketOut {
		return m.log.sync()
	}
	return nil
}

// Append implements engine.CommandLog: it logs a committed transaction and
// runs onDurable after the record is fsynced (group commit).
func (m *Manager) Append(proc, key string, args map[string]string, onDurable func(uint64, error)) {
	_ = m.Log(&logrec.Record{Kind: logrec.Txn, Proc: proc, Key: key, Args: args}, onDurable) // the error reaches onDurable
}

var _ engine.CommandLog = (*Manager)(nil)

// LogBucketOut durably records that the partition handed the bucket to a
// peer. Synchronous: the handoff is on disk when it returns.
func (m *Manager) LogBucketOut(bucket int) error {
	return m.Log(&logrec.Record{Kind: logrec.BucketOut, Bucket: bucket}, nil)
}

// LogBucketIn durably records a bucket received from a peer, contents
// inline — the receiver's log stays self-contained: replaying it alone
// reproduces the bucket without consulting the sender's history.
// Synchronous: the caller may apply the bucket once this returns.
func (m *Manager) LogBucketIn(data *storage.BucketData) error {
	return m.Log(&logrec.Record{Kind: logrec.BucketIn, Bucket: data.Bucket, Data: data}, nil)
}

// Snapshot persists the partition's full contents, rotates the log and
// truncates everything the snapshot covers. The caller must hold exclusive
// access to the partition (run it inside the executor's Do, or before the
// executor starts).
func (m *Manager) Snapshot(part *storage.Partition) error {
	if part.ID() != m.part {
		return fmt.Errorf("durability: manager for partition %d asked to snapshot partition %d", m.part, part.ID())
	}
	seg, err := m.log.rotate()
	if err != nil {
		return err
	}
	if err := writeSnapshot(m.dir, part, seg, m.seq.Load()); err != nil {
		return err
	}
	if err := m.log.truncateBefore(seg); err != nil {
		return err
	}
	return pruneSnapshots(m.dir, seg)
}

// Recover rebuilds the partition from the latest snapshot plus the log
// tail, replaying command records through the registry. The partition must
// be freshly created (owning no buckets) and its executor must not be
// running yet.
func (m *Manager) Recover(part *storage.Partition, reg *engine.Registry) (ReplayStats, error) {
	stats := ReplayStats{FromHandoff: make(map[int]bool)}
	if part.ID() != m.part {
		return stats, fmt.Errorf("durability: manager for partition %d asked to recover partition %d", m.part, part.ID())
	}
	fromSeg, seq, found, err := loadSnapshot(m.dir, part)
	if err != nil {
		return stats, err
	}
	stats.SnapshotLoaded = found
	err = replaySegments(m.dir, fromSeg, func(rec *logrec.Record) error {
		seq = rec.LSN
		return Apply(reg, part, rec, &stats)
	})
	m.seq.Store(seq)
	return stats, err
}

// Apply applies one record to the partition: the one apply path recovery
// and replicas share. A transaction or row load whose key, or a bucket-out
// whose bucket, the partition does not own is skipped — it was logged just
// before the bucket left, and its effects live at the bucket's new home. A
// bucket-in replaces any stale copy, so it is idempotent. stats, when
// non-nil, counts what was applied and skipped.
func Apply(reg *engine.Registry, part *storage.Partition, rec *logrec.Record, stats *ReplayStats) error {
	var discard ReplayStats
	if stats == nil {
		stats = &discard
	}
	switch rec.Kind {
	case logrec.Txn, logrec.Put:
		if !part.OwnsKey(rec.Key) {
			stats.Skipped++
			return nil
		}
		var err error
		if rec.Kind == logrec.Txn {
			err = engine.ReplayTxn(reg, part, rec.Proc, rec.Key, rec.Args)
		} else {
			part.CreateTable(rec.Tab)
			err = part.Put(rec.Tab, rec.Key, rec.Args)
		}
		if storage.IsNotOwned(err) {
			// The procedure reached into another bucket that has left.
			stats.Skipped++
			return nil
		}
		if err != nil {
			return err
		}
		stats.Txns++
	case logrec.BucketIn:
		if part.Owns(rec.Bucket) {
			if err := part.DropBucket(rec.Bucket); err != nil {
				return err
			}
		}
		if err := part.ApplyBucket(rec.Data); err != nil {
			return err
		}
		if stats.FromHandoff != nil {
			stats.FromHandoff[rec.Bucket] = true
		}
		stats.BucketsIn++
	case logrec.BucketOut:
		if !part.Owns(rec.Bucket) {
			stats.Skipped++
			return nil
		}
		if err := part.DropBucket(rec.Bucket); err != nil {
			return err
		}
		delete(stats.FromHandoff, rec.Bucket)
		stats.BucketsOut++
	default:
		return fmt.Errorf("durability: cannot apply record kind %d", rec.Kind)
	}
	return nil
}

// ReadFrom streams every durable record with Seq > afterSeq, in order, to
// fn — the replication catch-up path for a replica whose subscription
// point fell off the feed's in-memory buffer. It tolerates running
// concurrently with active appends: a torn tail ends the stream silently,
// exactly like recovery, and the caller bridges any remaining gap from the
// feed buffer or retries. Records logged before the latest snapshot are
// gone (truncated); the caller detects the gap from the first record's Seq
// and falls back to a full snapshot.
func (m *Manager) ReadFrom(afterSeq uint64, fn func(*logrec.Record) error) error {
	return replaySegments(m.dir, 0, func(rec *logrec.Record) error {
		if rec.LSN <= afterSeq {
			return nil
		}
		return fn(rec)
	})
}

// Flush forces pending appends to stable storage.
func (m *Manager) Flush() error { return m.log.sync() }

// FlushAsync registers cb to run once everything appended so far is on
// stable storage, riding the group-commit machinery instead of blocking on
// an fsync of its own — the hook replica tails use to pipeline standby
// group commits. cb runs on the WAL's committer goroutine (or inline, with
// ErrClosed, if the log is closed).
func (m *Manager) FlushAsync(cb func(error)) { m.log.requestSync(cb) }

// Close flushes and closes the log.
func (m *Manager) Close() error { return m.log.close() }

// Crash is a test hook that abandons buffered data and closes the log
// without flushing, simulating the process being killed. Records whose acks
// were delivered are already durable; unacked ones may be lost — exactly
// the guarantee a real crash leaves.
func (m *Manager) Crash() { m.log.crash() }
