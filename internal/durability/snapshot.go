package durability

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"pstore/internal/logrec"
	"pstore/internal/storage"
)

// A snapshot file is a logrec.Snapshot header record — the partition, its
// bucket count and tables, the LSN the snapshot covers and how many bucket
// records follow — then one logrec.BucketIn record per owned bucket, each
// in the WAL's checksummed frame. Files are written to a temp name, fsynced
// and renamed into place, so a snapshot is either complete or absent: a bad
// frame in one is corruption, never a torn tail, because the log it
// replaces is already truncated. The file is named after the WAL segment
// replay resumes from, making snapshot/segment pairing visible in a
// directory listing.

// writeSnapshot persists the partition's full contents. The caller must
// hold exclusive access to the partition (the executor's goroutine, or
// recovery before executors start).
func writeSnapshot(dir string, part *storage.Partition, seg int, seq uint64) error {
	owned := part.OwnedBuckets()
	tmp := filepath.Join(dir, snapshotName(seg)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer os.Remove(tmp) // no-op after a successful rename
	w := bufio.NewWriterSize(f, 1<<16)
	buf := logrec.AppendFrame(nil, &logrec.Record{Kind: logrec.Snapshot, LSN: seq,
		Part: part.ID(), NBuckets: part.NBuckets(), Count: len(owned), Tables: part.Tables()})
	if _, err := w.Write(buf); err != nil {
		f.Close()
		return err
	}
	for _, b := range owned {
		data, err := part.CopyBucket(b)
		if err != nil {
			f.Close()
			return err
		}
		buf = logrec.AppendFrame(buf[:0], &logrec.Record{Kind: logrec.BucketIn, LSN: seq, Bucket: b, Data: data})
		if _, err := w.Write(buf); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapshotName(seg))); err != nil {
		return err
	}
	return syncDir(dir)
}

// loadSnapshot restores the latest snapshot in dir into the (empty)
// partition, returning the WAL segment replay resumes from and the LSN the
// snapshot covers. With no snapshot present it returns (0, 0, false, nil):
// replay starts from the beginning of the log. Any bad frame, a missing
// header or fewer bucket records than the header promises is an error
// naming the file.
func loadSnapshot(dir string, part *storage.Partition) (seg int, seq uint64, found bool, err error) {
	snaps, err := listNumbered(dir, "snap-", ".snap")
	if err != nil {
		return 0, 0, false, err
	}
	if len(snaps) == 0 {
		return 0, 0, false, nil
	}
	n := snaps[len(snaps)-1]
	name := snapshotName(n)
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var buf []byte
	hdr, err := logrec.ReadFrame(r, &buf)
	if err != nil {
		return 0, 0, false, fmt.Errorf("durability: snapshot %s header: %w", name, err)
	}
	if hdr.Kind != logrec.Snapshot {
		return 0, 0, false, fmt.Errorf("durability: snapshot %s has no header (first record kind %d)", name, hdr.Kind)
	}
	if hdr.Part != part.ID() {
		return 0, 0, false, fmt.Errorf("durability: snapshot %s is for partition %d, not %d", name, hdr.Part, part.ID())
	}
	if hdr.NBuckets != part.NBuckets() {
		return 0, 0, false, fmt.Errorf("durability: snapshot %s has %d buckets, cluster has %d",
			name, hdr.NBuckets, part.NBuckets())
	}
	for _, t := range hdr.Tables {
		part.CreateTable(t)
	}
	for i := 0; i < hdr.Count; i++ {
		rec, err := logrec.ReadFrame(r, &buf)
		if err == nil && rec.Kind != logrec.BucketIn {
			err = fmt.Errorf("not a bucket record (kind %d)", rec.Kind)
		}
		if err != nil {
			return 0, 0, false, fmt.Errorf("durability: snapshot %s bucket %d/%d: %w", name, i+1, hdr.Count, err)
		}
		if err := part.ApplyBucket(rec.Data); err != nil {
			return 0, 0, false, err
		}
	}
	return n, hdr.LSN, true, nil
}

// pruneSnapshots removes all snapshots older than keep (a segment number).
func pruneSnapshots(dir string, keep int) error {
	snaps, err := listNumbered(dir, "snap-", ".snap")
	if err != nil {
		return err
	}
	for _, n := range snaps {
		if n < keep {
			if err := os.Remove(filepath.Join(dir, snapshotName(n))); err != nil {
				return err
			}
		}
	}
	return syncDir(dir)
}
