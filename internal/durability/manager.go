package durability

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"pstore/internal/engine"
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

// Append implements engine.CommandLog: it logs a committed transaction and
// runs onDurable after the record is fsynced (group commit).
func (m *Manager) Append(proc, key string, args map[string]string, onDurable func(uint64, error)) {
	m.appended.Add(1)
	seq := m.seq.Add(1)
	var cb func(error)
	if onDurable != nil {
		cb = func(err error) { onDurable(seq, err) }
	}
	err := m.log.append(&Record{Seq: seq, Kind: kindTxn, Proc: proc, Key: key, Args: args}, cb)
	if err != nil && onDurable != nil {
		onDurable(seq, err)
	}
}

var _ engine.CommandLog = (*Manager)(nil)

// AppendTxn logs a committed transaction without a durable callback, so
// it starts no group commit of its own: the record rides the next one, or
// a Flush/FlushAsync the caller issues once for a whole batch.
func (m *Manager) AppendTxn(proc, key string, args map[string]string) (uint64, error) {
	m.appended.Add(1)
	seq := m.seq.Add(1)
	return seq, m.log.append(&Record{Seq: seq, Kind: kindTxn, Proc: proc, Key: key, Args: args}, nil)
}

// AppendPut logs a direct row load (cluster.LoadRows through a replication
// feed). Asynchronous: the record rides the next group commit — bulk
// preloads must not pay one fsync per row.
func (m *Manager) AppendPut(table, key string, cols map[string]string) (uint64, error) {
	m.appended.Add(1)
	seq := m.seq.Add(1)
	return seq, m.log.append(&Record{Seq: seq, Kind: kindPut, Tab: table, Key: key, Args: cols}, nil)
}

// LogBucketOut durably records that the partition handed the bucket to a
// peer. Synchronous: the handoff is on disk when it returns.
func (m *Manager) LogBucketOut(bucket int) error {
	m.appended.Add(1)
	seq := m.seq.Add(1)
	if err := m.log.append(&Record{Seq: seq, Kind: kindBucketOut, Bucket: bucket}, nil); err != nil {
		return err
	}
	return m.log.sync()
}

// LogBucketIn durably records a bucket received from a peer, contents
// inline — the receiver's log stays self-contained: replaying it alone
// reproduces the bucket without consulting the sender's history.
// Synchronous: the caller may apply the bucket once this returns.
func (m *Manager) LogBucketIn(data *storage.BucketData) error {
	raw, err := json.Marshal(data)
	if err != nil {
		return err
	}
	m.appended.Add(1)
	seq := m.seq.Add(1)
	if err := m.log.append(&Record{Seq: seq, Kind: kindBucketIn, Bucket: data.Bucket, Data: raw}, nil); err != nil {
		return err
	}
	return m.log.sync()
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
	fromSeg, snapSeq, found, err := loadSnapshot(m.dir, part)
	if err != nil {
		return stats, err
	}
	stats.SnapshotLoaded = found
	seq := snapSeq
	err = replaySegments(m.dir, fromSeg, func(rec *Record) error {
		// Restore the LSN counter. Legacy records without a Seq advance it
		// by one each, which matches how they would have been stamped.
		if rec.Seq > 0 {
			seq = rec.Seq
		} else {
			seq++
		}
		switch rec.Kind {
		case kindTxn:
			if err := engine.ReplayTxn(reg, part, rec.Proc, rec.Key, rec.Args); err != nil {
				if isNotOwnedErr(err) {
					// A command for a bucket the partition no longer owns:
					// its effects live (and were replayed) at the bucket's
					// new home. Can only happen for records logged just
					// before a handoff of the same bucket.
					stats.Skipped++
					return nil
				}
				return err
			}
			stats.Txns++
		case kindBucketIn:
			var data storage.BucketData
			if err := json.Unmarshal(rec.Data, &data); err != nil {
				return fmt.Errorf("durability: bucket-in record: %w", err)
			}
			// Idempotent: drop any stale copy before applying the logged
			// authoritative contents.
			if part.Owns(data.Bucket) {
				if err := part.DropBucket(data.Bucket); err != nil {
					return err
				}
			}
			if err := part.ApplyBucket(&data); err != nil {
				return err
			}
			stats.FromHandoff[data.Bucket] = true
			stats.BucketsIn++
		case kindBucketOut:
			if part.Owns(rec.Bucket) {
				if err := part.DropBucket(rec.Bucket); err != nil {
					return err
				}
				delete(stats.FromHandoff, rec.Bucket)
				stats.BucketsOut++
			} else {
				stats.Skipped++
			}
		case kindPut:
			if !part.OwnsKey(rec.Key) {
				stats.Skipped++
				return nil
			}
			part.CreateTable(rec.Tab)
			if err := part.Put(rec.Tab, rec.Key, rec.Args); err != nil {
				return err
			}
			stats.Txns++
		default:
			return fmt.Errorf("durability: unknown record kind %d", rec.Kind)
		}
		return nil
	})
	m.seq.Store(seq)
	return stats, err
}

// ReadFrom streams every durable record with Seq > afterSeq, in order, to
// fn — the replication catch-up path for a replica whose subscription
// point fell off the feed's in-memory buffer. It tolerates running
// concurrently with active appends: a torn tail ends the stream silently,
// exactly like recovery, and the caller bridges any remaining gap from the
// feed buffer or retries. Records logged before the latest snapshot are
// gone (truncated); the caller detects the gap from the first record's Seq
// and falls back to a full snapshot.
func (m *Manager) ReadFrom(afterSeq uint64, fn func(*Record) error) error {
	return replaySegments(m.dir, 0, func(rec *Record) error {
		if rec.Seq <= afterSeq {
			return nil
		}
		return fn(rec)
	})
}

func isNotOwnedErr(err error) bool {
	var notOwned *storage.ErrNotOwned
	return errors.As(err, &notOwned)
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
