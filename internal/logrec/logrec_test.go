package logrec

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"pstore/internal/storage"
)

func sampleRecords() []*Record {
	return []*Record{
		{LSN: 1, Epoch: 1, Kind: Txn, Proc: "Put", Key: "k1", Args: map[string]string{"v": "1", "w": "2"}},
		{LSN: 2, Epoch: 1, Kind: Txn, Proc: "Delete", Key: "k2"},
		{LSN: 3, Epoch: 2, Kind: Put, Tab: "T", Key: "k3", Args: map[string]string{"v": "x"}},
		{LSN: 4, Epoch: 2, Kind: BucketOut, Bucket: 17},
		{LSN: 5, Epoch: 3, Kind: BucketIn, Bucket: 4, Data: &storage.BucketData{
			Bucket: 4,
			Tables: map[string][]storage.Row{
				"T": {
					{Key: "b", Cols: map[string]string{"v": "2", "u": "3"}},
					{Key: "a", Cols: map[string]string{"v": "1"}},
				},
				"U": {},
			},
		}},
		{LSN: 5, Kind: Snapshot, Part: 3, NBuckets: 64, Count: 2, Tables: []string{"T", "U"}},
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	var stream []byte
	recs := sampleRecords()
	for _, rec := range recs {
		stream = AppendFrame(stream, rec)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	for i, want := range recs {
		got, err := ReadFrame(br, &buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		// Empty maps decode as nil and rows decode sorted; normalize
		// before comparing.
		if want.Kind == BucketIn {
			if got.Bucket != want.Bucket || got.Data == nil {
				t.Fatalf("record %d: bucket mismatch", i)
			}
			ge := Append(nil, &Record{Kind: BucketIn, Data: got.Data})
			we := Append(nil, &Record{Kind: BucketIn, Data: want.Data})
			if !bytes.Equal(ge, we) {
				t.Fatalf("record %d: bucket data differs after round trip", i)
			}
			got.Data, want.Data = nil, nil
		}
		if len(want.Args) == 0 {
			want.Args = got.Args
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d round trip:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(br, &buf); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// TestRecordCodecDeterministicEncoding re-encodes the same logical record
// many times; map iteration order must never leak into the bytes.
func TestRecordCodecDeterministicEncoding(t *testing.T) {
	for _, rec := range sampleRecords() {
		want := Append(nil, rec)
		for i := 0; i < 50; i++ {
			again := *rec
			if rec.Args != nil {
				again.Args = make(map[string]string, len(rec.Args))
				for k, v := range rec.Args {
					again.Args[k] = v
				}
			}
			if rec.Data != nil {
				again.Data = &storage.BucketData{Bucket: rec.Data.Bucket, Tables: make(map[string][]storage.Row)}
				for name, rows := range rec.Data.Tables {
					again.Data.Tables[name] = rows
				}
			}
			if !bytes.Equal(want, Append(nil, &again)) {
				t.Fatalf("%v record, iteration %d: encoding differs for identical record", rec.Kind, i)
			}
		}
	}
}

// TestTornFrameFailsLoudly truncates a framed stream at every possible
// byte boundary: the reader must error on every prefix, never hand back a
// record from torn input, and report a cut inside a frame as torn.
func TestTornFrameFailsLoudly(t *testing.T) {
	var stream []byte
	var ends []int
	for _, rec := range sampleRecords() {
		stream = AppendFrame(stream, rec)
		ends = append(ends, len(stream))
	}
	whole := len(sampleRecords())
	for cut := 0; cut < len(stream); cut++ {
		br := bufio.NewReader(bytes.NewReader(stream[:cut]))
		var buf []byte
		decoded := 0
		var err error
		for {
			if _, err = ReadFrame(br, &buf); err != nil {
				break
			}
			decoded++
		}
		if decoded >= whole {
			t.Fatalf("cut at %d/%d: decoded all %d records from a torn stream", cut, len(stream), decoded)
		}
		atBoundary := cut == 0 || (decoded > 0 && cut == ends[decoded-1])
		switch {
		case atBoundary && err != io.EOF:
			t.Fatalf("cut at frame boundary %d: %v, want io.EOF", cut, err)
		case !atBoundary && !errors.Is(err, ErrTorn):
			t.Fatalf("cut at %d inside a frame: %v, want ErrTorn", cut, err)
		}
	}
}

// TestCorruptFrameRejected flips every byte of a framed record in turn:
// each flip must be reported torn, never decoded into some other record.
func TestCorruptFrameRejected(t *testing.T) {
	for _, rec := range sampleRecords() {
		frame := AppendFrame(nil, rec)
		for i := range frame {
			bad := append([]byte(nil), frame...)
			bad[i] ^= 0xff
			var buf []byte
			if got, err := ReadFrame(bytes.NewReader(bad), &buf); !errors.Is(err, ErrTorn) {
				t.Fatalf("%v record, byte %d flipped: got %+v, %v; want ErrTorn", rec.Kind, i, got, err)
			}
		}
	}
}

// TestCorruptPayloadRejected feeds the decoder payloads it must refuse:
// trailing garbage, truncation at every byte, an unknown kind and the
// non-canonical encodings Append never writes.
func TestCorruptPayloadRejected(t *testing.T) {
	for _, rec := range sampleRecords() {
		payload := Append(nil, rec)
		if _, err := Decode(append(payload, 0xFF)); !errors.Is(err, ErrTrailing) {
			t.Errorf("%v record, trailing byte: %v, want ErrTrailing", rec.Kind, err)
		}
		for cut := 0; cut < len(payload); cut++ {
			if _, err := Decode(payload[:cut]); err == nil {
				t.Errorf("%v record truncated at %d decoded without error", rec.Kind, cut)
			}
		}
	}
	if _, err := Decode([]byte{99, 1, 1}); err == nil {
		t.Error("unknown record kind decoded without error")
	}
	// Args {"a": "1", "a": "2"} and {"b": "1", "a": "2"}: a duplicate and
	// an unsorted key.
	for _, keys := range [][2]string{{"a", "a"}, {"b", "a"}} {
		p := Append(nil, &Record{Kind: Txn, Proc: "P", Key: "k"})
		p = append(p[:len(p)-1], 2)
		p = AppendString(AppendString(p, keys[0]), "1")
		p = AppendString(AppendString(p, keys[1]), "2")
		if _, err := Decode(p); err == nil {
			t.Errorf("map keys %q decoded without error", keys)
		}
	}
}

// FuzzRecord holds the decoder to two properties on arbitrary input: it
// never panics, and whatever it accepts re-encodes to bytes that decode to
// the same record and re-encode identically.
func FuzzRecord(f *testing.F) {
	for _, rec := range sampleRecords() {
		f.Add(Append(nil, rec))
	}
	f.Add([]byte{})
	f.Add([]byte{byte(Txn), 0, 0, 0, 0, 3, 1, 'a', 0, 1, 'a', 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Decode(data)
		if err != nil {
			return
		}
		enc := Append(nil, rec)
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v\nrecord %+v", err, rec)
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", again, rec)
		}
		if !bytes.Equal(Append(nil, again), enc) {
			t.Fatalf("re-encoding is not stable for %+v", rec)
		}
	})
}
