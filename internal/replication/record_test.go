package replication

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pstore/internal/logrec"
	"pstore/internal/storage"
)

func sampleRecords() []*logrec.Record {
	return []*logrec.Record{
		{LSN: 1, Epoch: 1, Kind: logrec.Txn, Proc: "Put", Key: "k1", Args: map[string]string{"v": "1", "w": "2"}},
		{LSN: 2, Epoch: 1, Kind: logrec.Txn, Proc: "Delete", Key: "k2"},
		{LSN: 3, Epoch: 2, Kind: logrec.Put, Tab: "T", Key: "k3", Args: map[string]string{"v": "x"}},
		{LSN: 4, Epoch: 2, Kind: logrec.BucketOut, Bucket: 17},
		{LSN: 5, Epoch: 3, Kind: logrec.BucketIn, Bucket: 4, Data: &storage.BucketData{
			Bucket: 4,
			Tables: map[string][]storage.Row{
				"T": {
					{Key: "a", Cols: map[string]string{"v": "1"}},
					{Key: "b", Cols: map[string]string{"v": "2", "u": "3"}},
				},
				"U": {},
			},
		}},
	}
}

// TestTornFrameFailsLoudly truncates a shipped stream at every possible
// byte boundary: the ship-frame reader and the decoder must error on every
// prefix, never hand back a record from torn input.
func TestTornFrameFailsLoudly(t *testing.T) {
	var stream []byte
	for _, rec := range sampleRecords() {
		stream = append(stream, encodeFrame(rec)...)
	}
	whole := len(sampleRecords())
	for cut := 0; cut < len(stream); cut++ {
		br := bufio.NewReader(bytes.NewReader(stream[:cut]))
		var buf []byte
		decoded := 0
		var err error
		for {
			var payload []byte
			payload, err = readShipFrame(br, &buf)
			if err != nil {
				break
			}
			if _, err = logrec.Decode(payload); err != nil {
				break
			}
			decoded++
		}
		if decoded >= whole {
			t.Fatalf("cut at %d/%d: decoded all %d records from a torn stream", cut, len(stream), decoded)
		}
		if err == nil {
			t.Fatalf("cut at %d: no error from torn stream", cut)
		}
	}
}

// TestCorruptPayloadRejected feeds the decoder what a damaged ship frame
// carries: trailing garbage, truncated payloads and an oversized length
// prefix must all be refused.
func TestCorruptPayloadRejected(t *testing.T) {
	rec := sampleRecords()[0]
	framed := encodeFrame(rec)
	br := bufio.NewReader(bytes.NewReader(framed))
	var buf []byte
	payload, err := readShipFrame(br, &buf)
	if err != nil {
		t.Fatal(err)
	}

	trailing := append(append([]byte(nil), payload...), 0xFF)
	if _, err := logrec.Decode(trailing); !errors.Is(err, logrec.ErrTrailing) {
		t.Errorf("trailing byte: %v, want logrec.ErrTrailing", err)
	}
	for cut := 1; cut < len(payload); cut++ {
		if _, err := logrec.Decode(payload[:cut]); err == nil {
			t.Errorf("truncated payload at %d decoded without error", cut)
		}
	}
	if _, err := logrec.Decode([]byte{99, 1, 1}); err == nil {
		t.Error("unknown record kind decoded without error")
	}

	huge := binary.AppendUvarint(nil, maxShipFrame+1)
	if _, err := readShipFrame(bufio.NewReader(bytes.NewReader(huge)), &buf); !errors.Is(err, errShipTooLarge) {
		t.Errorf("oversized frame: %v, want errShipTooLarge", err)
	}
}

// TestDeterministicReplayProperty is the replay property test: a randomly
// generated command log applied to two fresh replicas must leave them
// byte-identical — snapshot encodings and applied horizons equal.
func TestDeterministicReplayProperty(t *testing.T) {
	const nBuckets = 16
	rng := rand.New(rand.NewSource(7))
	recs := make([]*logrec.Record, 0, 400)
	lsn := uint64(0)
	// Seed ownership of every bucket, then a shuffled mix of puts, txns
	// and bucket handoffs.
	for b := 0; b < nBuckets; b++ {
		lsn++
		recs = append(recs, &logrec.Record{LSN: lsn, Epoch: 1, Kind: logrec.BucketIn, Bucket: b,
			Data: &storage.BucketData{Bucket: b, Tables: map[string][]storage.Row{}}})
	}
	for i := 0; i < 300; i++ {
		lsn++
		key := fmt.Sprintf("key-%d", rng.Intn(120))
		switch rng.Intn(4) {
		case 0:
			recs = append(recs, &logrec.Record{LSN: lsn, Epoch: 1, Kind: logrec.Put, Tab: "T", Key: key,
				Args: map[string]string{"v": fmt.Sprintf("%d", i), "r": fmt.Sprintf("%d", rng.Intn(10))}})
		case 1:
			b := rng.Intn(nBuckets)
			recs = append(recs, &logrec.Record{LSN: lsn, Epoch: 1, Kind: logrec.BucketOut, Bucket: b})
		case 2:
			b := rng.Intn(nBuckets)
			recs = append(recs, &logrec.Record{LSN: lsn, Epoch: 1, Kind: logrec.BucketIn, Bucket: b,
				Data: &storage.BucketData{Bucket: b, Tables: map[string][]storage.Row{
					"T": {{Key: key, Cols: map[string]string{"v": "seeded"}}},
				}}})
		default:
			recs = append(recs, &logrec.Record{LSN: lsn, Epoch: 1, Kind: logrec.Put, Tab: "U", Key: key,
				Args: map[string]string{"n": fmt.Sprintf("%d", i)}})
		}
	}

	replay := func() *Replica {
		r := NewReplica(0, nBuckets, "n", testReg(), Options{Seed: 1}, newTestEvents())
		for _, rec := range recs {
			if err := r.Apply(cloneRecord(rec)); err != nil {
				t.Fatalf("apply LSN %d: %v", rec.LSN, err)
			}
		}
		return r
	}
	a, b := replay(), replay()
	if a.Applied() != b.Applied() {
		t.Fatalf("applied horizons differ: %d vs %d", a.Applied(), b.Applied())
	}
	ea, eb := encodeReplica(a), encodeReplica(b)
	if !bytes.Equal(ea, eb) {
		t.Fatalf("replica states differ after identical replay (%d vs %d bytes)", len(ea), len(eb))
	}
}

// cloneRecord deep-copies a record so one replay cannot alias state into
// the other through shared maps.
func cloneRecord(rec *logrec.Record) *logrec.Record {
	out := *rec
	if rec.Args != nil {
		out.Args = make(map[string]string, len(rec.Args))
		for k, v := range rec.Args {
			out.Args[k] = v
		}
	}
	if rec.Data != nil {
		d := &storage.BucketData{Bucket: rec.Data.Bucket, Tables: make(map[string][]storage.Row, len(rec.Data.Tables))}
		for name, rows := range rec.Data.Tables {
			cp := make([]storage.Row, len(rows))
			for i, r := range rows {
				cols := make(map[string]string, len(r.Cols))
				for k, v := range r.Cols {
					cols[k] = v
				}
				cp[i] = storage.Row{Key: r.Key, Cols: cols}
			}
			d.Tables[name] = cp
		}
		out.Data = d
	}
	return &out
}

// encodeReplica serializes a replica's owned buckets with the deterministic
// bucket encoding.
func encodeReplica(r *Replica) []byte {
	var out []byte
	r.Inspect(func(p *storage.Partition) { out = encodePartition(p) })
	return out
}

// encodePartition serializes a partition's owned buckets, as bucket-in
// records, with the deterministic bucket encoding.
func encodePartition(p *storage.Partition) []byte {
	var out []byte
	for _, b := range p.OwnedBuckets() {
		d, err := p.CopyBucket(b)
		if err != nil {
			panic(err)
		}
		out = logrec.Append(out, &logrec.Record{Kind: logrec.BucketIn, Data: d})
	}
	return out
}
