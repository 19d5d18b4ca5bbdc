package durability

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pstore/internal/logrec"
	"pstore/internal/storage"
)

// snapshotWithHello writes a snapshot of a partition holding the value
// "hello" (plus a few rows across buckets) and returns the directory and
// the snapshot file's path.
func snapshotWithHello(t *testing.T) (dir, path string) {
	t.Helper()
	dir = t.TempDir()
	m := openTestManager(t, dir, Options{GroupCommitInterval: 500 * time.Microsecond})
	part := newTestPartition(8)
	if err := part.Put("t", "greeting", map[string]string{"v": "hello"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := part.Put("t", fmt.Sprintf("k%d", i), map[string]string{"v": "x"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Snapshot(part); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := listNumbered(dir, "snap-", ".snap")
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots = %v, %v; want one", snaps, err)
	}
	return dir, filepath.Join(dir, snapshotName(snaps[0]))
}

// recoverDir opens dir and recovers a fresh partition from it.
func recoverDir(t *testing.T, dir string) (*storage.Partition, *Manager, error) {
	t.Helper()
	m := openTestManager(t, dir, Options{GroupCommitInterval: 500 * time.Microsecond})
	t.Cleanup(func() { m.Close() })
	part := storage.NewPartition(0, 8, nil)
	part.CreateTable("t")
	_, err := m.Recover(part, testRegistry())
	return part, m, err
}

// TestSnapshotValueFlipDetected flips one byte inside a stored row value:
// recovery must refuse the snapshot rather than load "jello".
func TestSnapshotValueFlipDetected(t *testing.T) {
	dir, path := snapshotWithHello(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(raw, []byte("hello"))
	if i < 0 {
		t.Fatal("value not found in snapshot")
	}
	raw[i] = 'j'
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	part, _, err := recoverDir(t, dir)
	if err == nil {
		row, _, _ := part.Get("t", "greeting")
		t.Fatalf("corrupt snapshot recovered without error (greeting = %q)", row.Cols["v"])
	}
	if !strings.Contains(err.Error(), filepath.Base(path)) {
		t.Errorf("error %q does not name the snapshot file", err)
	}
}

// frameEnds returns the end offset of each checksummed frame in raw.
func frameEnds(t *testing.T, raw []byte) []int {
	t.Helper()
	var ends []int
	for off := 0; off < len(raw); {
		if len(raw)-off < 8 {
			t.Fatalf("partial frame header at %d", off)
		}
		off += 8 + int(binary.LittleEndian.Uint32(raw[off:]))
		ends = append(ends, off)
	}
	return ends
}

// TestSnapshotCorruptionFailsRecover damages a snapshot every way a bad
// disk or an interrupted rewrite could — one flipped byte in each frame, a
// missing header, fewer bucket records than the header promises — and
// requires each to fail recovery with an error naming the file. A snapshot
// is never a torn tail: the log it replaced is already gone.
func TestSnapshotCorruptionFailsRecover(t *testing.T) {
	dir, path := snapshotWithHello(t)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, good)
	if len(ends) < 3 {
		t.Fatalf("snapshot has %d frames, want a header and several buckets", len(ends))
	}
	check := func(what string, raw []byte) {
		t.Helper()
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := recoverDir(t, dir)
		if err == nil {
			t.Fatalf("%s: recovered without error", what)
		}
		if !strings.Contains(err.Error(), filepath.Base(path)) {
			t.Errorf("%s: error %q does not name the snapshot file", what, err)
		}
	}
	start := 0
	for i, end := range ends {
		for _, at := range []int{start, start + 5, (start + 8 + end) / 2, end - 1} {
			bad := append([]byte(nil), good...)
			bad[at] ^= 0xff
			check(fmt.Sprintf("frame %d byte %d flipped", i, at), bad)
		}
		start = end
	}
	check("missing header", good[ends[0]:])
	check("bucket records short of the header's count", good[:ends[len(ends)-2]])
	check("empty file", nil)
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := recoverDir(t, dir); err != nil {
		t.Fatalf("intact snapshot: %v", err)
	}
}

// TestJSONEraFilesFailLoudly hands recovery the JSON encodings older
// builds wrote. A JSON-era snapshot carries no checksummed frames and a
// JSON-era WAL record is a checksummed frame around a JSON payload; both
// must fail recovery, never load as empty or partial state.
func TestJSONEraFilesFailLoudly(t *testing.T) {
	t.Run("snapshot", func(t *testing.T) {
		dir := t.TempDir()
		js := `{"partition":0,"nbuckets":8,"seg":1,"seq":1,"tables":["t"],"buckets":1}` + "\n" +
			`{"Bucket":0,"Tables":{"t":[{"Key":"a","Cols":{"v":"x"}}]}}` + "\n"
		if err := os.WriteFile(filepath.Join(dir, snapshotName(1)), []byte(js), 0o644); err != nil {
			t.Fatal(err)
		}
		part, _, err := recoverDir(t, dir)
		if err == nil {
			t.Fatalf("JSON-era snapshot recovered (%d buckets, %d rows)", len(part.OwnedBuckets()), part.RowCount())
		}
		if !strings.Contains(err.Error(), snapshotName(1)) {
			t.Errorf("error %q does not name the snapshot file", err)
		}
	})
	t.Run("wal", func(t *testing.T) {
		dir := t.TempDir()
		payload := []byte(`{"s":1,"k":1,"p":"set","key":"a","a":{"v":"x"}}`)
		var frame [8]byte
		binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
		if err := os.WriteFile(filepath.Join(dir, segmentName(0)), append(frame[:], payload...), 0o644); err != nil {
			t.Fatal(err)
		}
		part, _, err := recoverDir(t, dir)
		if err == nil {
			t.Fatalf("JSON-era WAL record recovered (%d rows)", part.RowCount())
		}
		if !strings.Contains(err.Error(), segmentName(0)) {
			t.Errorf("error %q does not name the segment", err)
		}
	})
}

// TestWALCrashPoints enumerates crash points over a log that holds every
// record kind across several segments after a snapshot: the last segment
// cut at every byte offset, and one byte flipped inside each record in
// turn. Recovery must succeed every time, leave exactly the state of the
// snapshot plus the longest intact record prefix, and resume the LSN
// counter at that prefix's last record.
func TestWALCrashPoints(t *testing.T) {
	src := t.TempDir()
	m := openTestManager(t, src, Options{GroupCommitInterval: 500 * time.Microsecond, SegmentBytes: 256})
	part := storage.NewPartition(0, 8, []int{0, 1, 2, 3, 4, 5, 6})
	part.CreateTable("t")
	if err := part.Put("t", "base", map[string]string{"v": "snap"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Snapshot(part); err != nil {
		t.Fatal(err)
	}
	var logged []*logrec.Record
	log := func(rec *logrec.Record) {
		t.Helper()
		if err := m.Log(rec, nil); err != nil {
			t.Fatal(err)
		}
		logged = append(logged, rec)
	}
	for i := 0; i < 24; i++ {
		key := fmt.Sprintf("k%d", i)
		switch i % 6 {
		case 0, 3:
			log(&logrec.Record{Kind: logrec.Txn, Proc: "set", Key: key, Args: map[string]string{"v": key}})
		case 1:
			log(&logrec.Record{Kind: logrec.Put, Tab: "t", Key: key, Args: map[string]string{"v": "put"}})
		case 2:
			log(&logrec.Record{Kind: logrec.Txn, Proc: "inc", Key: "base"})
		case 4:
			b := 7 - i/6
			log(&logrec.Record{Kind: logrec.BucketIn, Bucket: b, Data: &storage.BucketData{Bucket: b,
				Tables: map[string][]storage.Row{"t": {{Key: fmt.Sprintf("in%d", b), Cols: map[string]string{"v": "moved"}}}}}})
		case 5:
			log(&logrec.Record{Kind: logrec.BucketOut, Bucket: i / 6})
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Map each segment's frames to the records they hold.
	segs, err := listNumbered(src, "wal-", ".log")
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	type span struct {
		file       string
		start, end int
	}
	var spans []span // spans[i] locates logged[i]
	var walFiles []string
	for _, n := range segs {
		name := segmentName(n)
		raw, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = raw
		walFiles = append(walFiles, name)
		start := 0
		for _, end := range frameEnds(t, raw) {
			spans = append(spans, span{name, start, end})
			start = end
		}
	}
	if len(spans) != len(logged) {
		t.Fatalf("found %d frames on disk, logged %d records", len(spans), len(logged))
	}
	nonEmpty := 0
	for _, raw := range files {
		if len(raw) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Fatalf("log spans %d non-empty segments, want at least 2", nonEmpty)
	}
	snaps, err := listNumbered(src, "snap-", ".snap")
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots = %v, %v", snaps, err)
	}
	snapRaw, err := os.ReadFile(filepath.Join(src, snapshotName(snaps[0])))
	if err != nil {
		t.Fatal(err)
	}

	// want[k] is the snapshot plus the first k records, replayed directly.
	reg := testRegistry()
	want := make([]*storage.Partition, len(logged)+1)
	for k := range want {
		p := storage.NewPartition(0, 8, nil)
		p.CreateTable("t")
		if _, _, _, err := loadSnapshot(src, p); err != nil {
			t.Fatal(err)
		}
		for _, rec := range logged[:k] {
			if err := Apply(reg, p, rec, nil); err != nil {
				t.Fatal(err)
			}
		}
		want[k] = p
	}

	// recoverFrom writes the given segment contents next to the snapshot,
	// recovers, and checks the result against the k-record prefix.
	recoverFrom := func(what string, segments map[string][]byte, k int) {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapshotName(snaps[0])), snapRaw, 0o644); err != nil {
			t.Fatal(err)
		}
		for name, raw := range segments {
			if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		m := openTestManager(t, dir, Options{})
		defer m.Close()
		got := storage.NewPartition(0, 8, nil)
		got.CreateTable("t")
		if _, err := m.Recover(got, reg); err != nil {
			t.Fatalf("%s: Recover: %v", what, err)
		}
		if wantSeq := uint64(k); m.Seq() != wantSeq {
			t.Fatalf("%s: Seq = %d, want %d (prefix of %d records)", what, m.Seq(), wantSeq, k)
		}
		if !reflect.DeepEqual(got.OwnedBuckets(), want[k].OwnedBuckets()) ||
			contentChecksum(t, got) != contentChecksum(t, want[k]) {
			t.Fatalf("%s: recovered state differs from the %d-record prefix", what, k)
		}
	}

	// A crash while segment j was active leaves segments before it whole,
	// j cut at some offset, and none after it; every segment takes a turn
	// as the last one, so every byte offset of the log is a crash point.
	cuts := 0
	for j, last := range walFiles {
		for cut := 0; cut <= len(files[last]); cut++ {
			segments := map[string][]byte{}
			for _, name := range walFiles[:j] {
				segments[name] = files[name]
			}
			segments[last] = files[last][:cut]
			k := 0
			for k < len(spans) && (spans[k].file != last || spans[k].end <= cut) && spans[k].file <= last {
				k++
			}
			recoverFrom(fmt.Sprintf("%s cut at %d", last, cut), segments, k)
			cuts++
		}
	}
	t.Logf("%d records over %d segments, %d crash points", len(logged), len(walFiles), cuts)
	for i, sp := range spans {
		segments := map[string][]byte{}
		for name, raw := range files {
			segments[name] = raw
		}
		bad := append([]byte(nil), files[sp.file]...)
		bad[(sp.start+8+sp.end)/2] ^= 0xff
		segments[sp.file] = bad
		recoverFrom(fmt.Sprintf("record %d (LSN %d) flipped", i, logged[i].LSN), segments, i)
	}
}
