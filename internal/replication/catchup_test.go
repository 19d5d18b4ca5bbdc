package replication

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"pstore/internal/durability"
	"pstore/internal/engine"
	"pstore/internal/logrec"
	"pstore/internal/storage"
)

// TestDiskCatchupReshipsLoggedRecords drives Feed.diskCatchup: a durable
// feed whose in-memory tail is far shorter than its log must seed a
// replica attaching below the tail from disk. The catch-up frames carry
// every record kind, restamped at the feed's current epoch, and a replica
// applying them converges to the primary's exact contents.
func TestDiskCatchupReshipsLoggedRecords(t *testing.T) {
	const nBuckets = 4
	dir := t.TempDir()
	mgr, err := durability.Open(dir, 0, durability.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	reg := testReg()
	primary := storage.NewPartition(0, nBuckets, nil)
	var logged []*logrec.Record

	// Epoch 1 logs the seeding handoffs and some traffic; epoch 2 (a new
	// feed continuing the same log, as after a failover) logs the rest.
	feed := NewFeed(0, mgr, 1, 0, Options{Seed: 1, MaxBuffer: 4}, newTestEvents())
	for b := 0; b < nBuckets; b++ {
		data := &storage.BucketData{Bucket: b, Tables: map[string][]storage.Row{"T": {}}}
		if b == 3 {
			data.Tables["T"] = []storage.Row{{Key: "seed", Cols: map[string]string{"v": "s"}}}
		}
		if err := feed.LogBucketIn(data); err != nil {
			t.Fatal(err)
		}
		// Apply a private copy: the feed and log must not alias the rows
		// the primary keeps mutating.
		cp := &storage.BucketData{Bucket: b, Tables: map[string][]storage.Row{"T": append([]storage.Row(nil), data.Tables["T"]...)}}
		if err := primary.ApplyBucket(cp); err != nil {
			t.Fatal(err)
		}
		logged = append(logged, &logrec.Record{Kind: logrec.BucketIn, Bucket: b, Data: data})
	}
	write := func(f *Feed, i int) {
		key := fmt.Sprintf("k%d", i)
		args := map[string]string{"v": fmt.Sprint(i)}
		switch {
		case i%5 == 4 && primary.OwnsKey(key):
			// Hand the key's bucket off: later records for it are skipped.
			b := storage.BucketOf(key, nBuckets)
			if err := f.LogBucketOut(b); err != nil {
				t.Fatal(err)
			}
			if err := primary.DropBucket(b); err != nil {
				t.Fatal(err)
			}
			logged = append(logged, &logrec.Record{Kind: logrec.BucketOut, Bucket: b})
		case i%3 == 0:
			if err := f.LogPut("T", key, args); err != nil {
				t.Fatal(err)
			}
			if primary.OwnsKey(key) {
				if err := primary.Put("T", key, args); err != nil {
					t.Fatal(err)
				}
			}
			logged = append(logged, &logrec.Record{Kind: logrec.Put, Tab: "T", Key: key, Args: args})
		default:
			done := make(chan error, 1)
			f.Append("Put", key, args, func(_ uint64, err error) { done <- err })
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if primary.OwnsKey(key) {
				if err := engine.ReplayTxn(reg, primary, "Put", key, args); err != nil {
					t.Fatal(err)
				}
			}
			logged = append(logged, &logrec.Record{Kind: logrec.Txn, Proc: "Put", Key: key, Args: args})
		}
	}
	for i := 0; i < 12; i++ {
		write(feed, i)
	}
	feed.Close()
	feed = NewFeed(0, mgr, 2, mgr.Seq(), Options{Seed: 1, MaxBuffer: 4}, newTestEvents())
	defer feed.Close()
	for i := 12; i < 30; i++ {
		write(feed, i)
	}
	if err := mgr.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, rec := range logged {
		rec.LSN, rec.Epoch = uint64(i+1), 2
	}

	// The replica has applied through fromLSN, which the feed's tail no
	// longer holds but the log does.
	const fromLSN = 2
	rep := NewReplica(0, nBuckets, "n", reg, Options{Seed: 1}, newTestEvents())
	for _, rec := range logged[:fromLSN] {
		if err := rep.Apply(cloneRecord(rec)); err != nil {
			t.Fatalf("pre-apply LSN %d: %v", rec.LSN, err)
		}
	}
	att, err := feed.Attach(fromLSN, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer att.Sub.Close()
	if att.Snapshot != nil {
		t.Fatal("attach within the on-disk log must not snapshot")
	}
	if len(att.Catchup) != len(logged)-fromLSN {
		t.Fatalf("catch-up carries %d frames, want %d", len(att.Catchup), len(logged)-fromLSN)
	}
	kinds := map[logrec.Kind]bool{}
	for i, frame := range att.Catchup {
		got, err := logrec.Decode(frame[frameHeaderLen(frame):])
		if err != nil {
			t.Fatalf("catch-up frame %d: %v", i, err)
		}
		want := logged[fromLSN+i]
		if !bytes.Equal(encodeFrame(got), encodeFrame(want)) {
			t.Fatalf("catch-up frame %d:\n got %+v\nwant %+v", i, got, want)
		}
		kinds[got.Kind] = true
		if err := rep.Apply(got); err != nil {
			t.Fatalf("apply LSN %d: %v", got.LSN, err)
		}
	}
	if want := map[logrec.Kind]bool{logrec.Txn: true, logrec.Put: true, logrec.BucketIn: true, logrec.BucketOut: true}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("catch-up record kinds = %v, want %v", kinds, want)
	}
	if got, want := encodeReplica(rep), encodePartition(primary); !bytes.Equal(got, want) {
		t.Fatal("replica caught up from disk differs from the primary")
	}
}
