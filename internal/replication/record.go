package replication

//pstore:deterministic — shipped records are replayed on replicas and
// compared byte-for-byte across runs; map iteration order must not leak
// into the encoding.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"pstore/internal/durability"
	"pstore/internal/storage"
)

// Record kinds. They mirror the durability log's kinds, plus RecPut for
// bulk loads shipped outside stored procedures.
const (
	RecTxn       byte = 1 // a committed stored-procedure invocation
	RecBucketIn  byte = 2 // bucket received in a migration handoff, contents inline
	RecBucketOut byte = 3 // bucket handed off to a peer
	RecPut       byte = 4 // a direct row load (cluster.LoadRows)
)

// Ship-stream message kinds, kept disjoint from record kinds so a frame's
// first byte always identifies it.
const (
	msgSubscribe byte = 100 // replica → hub: part, epoch, fromLSN
	msgHello     byte = 101 // hub → replica: epoch, startLSN, optional snapshot header
	msgError     byte = 102 // hub → replica: refusal with reason
	msgBucket    byte = 103 // hub → replica: one snapshot bucket
	msgAck       byte = 104 // replica → hub: applied LSN (cumulative: highest contiguous)
	msgHeartbeat byte = 105 // hub → replica: idle-stream liveness beacon
	msgBatch     byte = 106 // hub → replica: multi-record envelope (count + record frames)
)

// Record is one shipped command-log entry. A replica applying records in
// LSN order reconstructs the primary's partition exactly.
type Record struct {
	LSN   uint64
	Epoch uint64
	Kind  byte

	Proc string            // RecTxn
	Key  string            // RecTxn, RecPut
	Args map[string]string // RecTxn args; RecPut columns
	Tab  string            // RecPut table

	Bucket int                 // RecBucketIn, RecBucketOut
	Data   *storage.BucketData // RecBucketIn
}

// maxShipFrame bounds a single shipped frame; a corrupt length prefix is
// rejected before any allocation.
const maxShipFrame = 64 << 20

// Codec errors. Torn or truncated frames must fail loudly — a replica that
// silently mis-decoded a record would diverge.
var (
	errShipTruncated = errors.New("replication: truncated record payload")
	errShipTrailing  = errors.New("replication: trailing bytes after record")
	errShipTooLarge  = errors.New("replication: frame exceeds size limit")
)

func appendUvarint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendStringMap writes a count-prefixed map in sorted key order so the
// same map always encodes to the same bytes.
func appendStringMap(buf []byte, m map[string]string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(m)))
	var arr [16]string
	keys := arr[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		buf = appendString(buf, k)
		buf = appendString(buf, m[k])
	}
	return buf
}

// appendBucketData writes one bucket's rows with tables and rows sorted, so
// two replicas encoding identical state produce identical bytes.
func appendBucketData(buf []byte, d *storage.BucketData) []byte {
	buf = appendUvarint(buf, uint64(d.Bucket))
	names := make([]string, 0, len(d.Tables))
	for name := range d.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	buf = appendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		rows := append([]storage.Row(nil), d.Tables[name]...)
		sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
		buf = appendString(buf, name)
		buf = appendUvarint(buf, uint64(len(rows)))
		for _, r := range rows {
			buf = appendString(buf, r.Key)
			buf = appendStringMap(buf, r.Cols)
		}
	}
	return buf
}

// fromDurable converts a durable log record into a ship record at the
// feed's current epoch — the disk catch-up path re-shipping committed
// history to a lagging replica.
func fromDurable(rec *durability.Record, epoch uint64) (*Record, error) {
	out := &Record{LSN: rec.Seq, Epoch: epoch}
	switch rec.Kind {
	case durability.KindTxn:
		out.Kind = RecTxn
		out.Proc, out.Key, out.Args = rec.Proc, rec.Key, rec.Args
	case durability.KindPut:
		out.Kind = RecPut
		out.Tab, out.Key, out.Args = rec.Tab, rec.Key, rec.Args
	case durability.KindBucketOut:
		out.Kind = RecBucketOut
		out.Bucket = rec.Bucket
	case durability.KindBucketIn:
		out.Kind = RecBucketIn
		var data storage.BucketData
		if err := json.Unmarshal(rec.Data, &data); err != nil {
			return nil, fmt.Errorf("replication: durable bucket-in record: %w", err)
		}
		out.Bucket, out.Data = data.Bucket, &data
	default:
		return nil, fmt.Errorf("replication: unknown durable record kind %d", rec.Kind)
	}
	return out, nil
}

// reader tracks a decode position inside one payload.
type reader struct {
	data []byte
	pos  int
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, errShipTruncated
	}
	r.pos += n
	return v, nil
}

func (r *reader) byte() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, errShipTruncated
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

func (r *reader) string() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.data)-r.pos) {
		return "", errShipTruncated
	}
	s := string(r.data[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

func (r *reader) stringMap() (map[string]string, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.data)-r.pos)/2 {
		return nil, errShipTruncated
	}
	if n == 0 {
		return nil, nil
	}
	m := make(map[string]string, n)
	for i := uint64(0); i < n; i++ {
		k, err := r.string()
		if err != nil {
			return nil, err
		}
		v, err := r.string()
		if err != nil {
			return nil, err
		}
		m[k] = v
	}
	return m, nil
}

func (r *reader) bucketData() (*storage.BucketData, error) {
	b, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	nt, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nt > uint64(len(r.data)-r.pos) {
		return nil, errShipTruncated
	}
	d := &storage.BucketData{Bucket: int(b), Tables: make(map[string][]storage.Row, nt)}
	for i := uint64(0); i < nt; i++ {
		name, err := r.string()
		if err != nil {
			return nil, err
		}
		nr, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if nr > uint64(len(r.data)-r.pos) {
			return nil, errShipTruncated
		}
		rows := make([]storage.Row, 0, nr)
		for j := uint64(0); j < nr; j++ {
			key, err := r.string()
			if err != nil {
				return nil, err
			}
			cols, err := r.stringMap()
			if err != nil {
				return nil, err
			}
			if cols == nil {
				cols = map[string]string{}
			}
			rows = append(rows, storage.Row{Key: key, Cols: cols})
		}
		d.Tables[name] = rows
	}
	return d, nil
}

func (r *reader) done() error {
	if r.pos != len(r.data) {
		return errShipTrailing
	}
	return nil
}

// appendRecordPayload appends rec's payload bytes (no length prefix).
func appendRecordPayload(payload []byte, rec *Record) []byte {
	payload = append(payload, rec.Kind)
	payload = appendUvarint(payload, rec.LSN)
	payload = appendUvarint(payload, rec.Epoch)
	switch rec.Kind {
	case RecTxn:
		payload = appendString(payload, rec.Proc)
		payload = appendString(payload, rec.Key)
		payload = appendStringMap(payload, rec.Args)
	case RecPut:
		payload = appendString(payload, rec.Tab)
		payload = appendString(payload, rec.Key)
		payload = appendStringMap(payload, rec.Args)
	case RecBucketOut:
		payload = appendUvarint(payload, uint64(rec.Bucket))
	case RecBucketIn:
		payload = appendBucketData(payload, rec.Data)
	}
	return payload
}

// appendRecord appends rec as one length-prefixed frame.
func appendRecord(buf []byte, rec *Record) []byte {
	payload := appendRecordPayload(make([]byte, 0, 64), rec)
	buf = appendUvarint(buf, uint64(len(payload)))
	return append(buf, payload...)
}

// encodePool recycles the scratch buffers encodeFrame stages payloads in.
// Only the scratch is pooled — the returned frame must be a fresh
// allocation, because the feed retains it in its catch-up buffer and every
// subscriber queue holds a reference.
var encodePool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// encodeFrame encodes rec as one standalone length-prefixed frame in a
// single right-sized allocation: the payload is staged in a pooled scratch
// (its length determines the uvarint prefix), then copied once into the
// frame the feed retains. This is the feed's per-append encoding path, so
// it is held to the same allocation discipline as the request hot path.
func encodeFrame(rec *Record) []byte {
	sp := encodePool.Get().(*[]byte)
	payload := appendRecordPayload((*sp)[:0], rec)
	frame := make([]byte, 0, len(payload)+binary.MaxVarintLen32)
	frame = appendUvarint(frame, uint64(len(payload)))
	frame = append(frame, payload...)
	*sp = payload[:0]
	encodePool.Put(sp)
	return frame
}

// appendBatchEnvelope appends one length-prefixed msgBatch frame wrapping
// the given record frames (each already length-prefixed): the multi-record
// ship envelope. nbytes must be the summed length of the frames. The
// caller hands the result to a single writer call, so a burst of records
// costs one syscall, one standby fsync and one cumulative ack.
//
// Envelope payload layout: msgBatch, uvarint record count, then the record
// frames verbatim — a decoder walks the inner length prefixes and must
// consume the payload exactly (count and bytes both checked), so a torn or
// padded envelope fails loudly like every other frame.
func appendBatchEnvelope(buf []byte, frames [][]byte, nbytes int) []byte {
	var cnt [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(cnt[:], uint64(len(frames)))
	buf = appendUvarint(buf, uint64(1+n+nbytes))
	buf = append(buf, msgBatch)
	buf = append(buf, cnt[:n]...)
	for _, f := range frames {
		buf = append(buf, f...)
	}
	return buf
}

// splitBatch validates a msgBatch envelope header and returns the declared
// record count plus the concatenated record frames.
func splitBatch(payload []byte) (count uint64, frames []byte, err error) {
	r := reader{data: payload}
	kind, err := r.byte()
	if err != nil {
		return 0, nil, err
	}
	if kind != msgBatch {
		return 0, nil, fmt.Errorf("replication: expected batch envelope, got message kind %d", kind)
	}
	if count, err = r.uvarint(); err != nil {
		return 0, nil, err
	}
	if count == 0 {
		return 0, nil, fmt.Errorf("replication: empty batch envelope")
	}
	if count > uint64(len(payload)) {
		return 0, nil, errShipTruncated
	}
	return count, payload[r.pos:], nil
}

// nextBatchRecord slices one record payload off the envelope's remaining
// frame bytes. A length prefix running past the envelope is a torn batch.
func nextBatchRecord(frames []byte) (payload, rest []byte, err error) {
	n, sz := binary.Uvarint(frames)
	if sz <= 0 {
		return nil, nil, errShipTruncated
	}
	if n > maxShipFrame {
		return nil, nil, errShipTooLarge
	}
	if n > uint64(len(frames)-sz) {
		return nil, nil, errShipTruncated
	}
	return frames[sz : sz+int(n)], frames[sz+int(n):], nil
}

// decodeRecord parses one record payload (frame length already stripped).
func decodeRecord(data []byte) (*Record, error) {
	r := reader{data: data}
	kind, err := r.byte()
	if err != nil {
		return nil, err
	}
	rec := &Record{Kind: kind}
	if rec.LSN, err = r.uvarint(); err != nil {
		return nil, err
	}
	if rec.Epoch, err = r.uvarint(); err != nil {
		return nil, err
	}
	switch kind {
	case RecTxn:
		if rec.Proc, err = r.string(); err != nil {
			return nil, err
		}
		if rec.Key, err = r.string(); err != nil {
			return nil, err
		}
		if rec.Args, err = r.stringMap(); err != nil {
			return nil, err
		}
	case RecPut:
		if rec.Tab, err = r.string(); err != nil {
			return nil, err
		}
		if rec.Key, err = r.string(); err != nil {
			return nil, err
		}
		if rec.Args, err = r.stringMap(); err != nil {
			return nil, err
		}
	case RecBucketOut:
		b, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		rec.Bucket = int(b)
	case RecBucketIn:
		d, err := r.bucketData()
		if err != nil {
			return nil, err
		}
		rec.Bucket = d.Bucket
		rec.Data = d
	default:
		return nil, fmt.Errorf("replication: unknown record kind %d", kind)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return rec, nil
}

// readShipFrame reads one length-prefixed frame into buf (reused across
// calls) and returns the payload slice, valid until the next call. A short
// read returns io.ErrUnexpectedEOF — a torn frame, never a silent
// truncation.
func readShipFrame(br *bufio.Reader, buf *[]byte) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > maxShipFrame {
		return nil, errShipTooLarge
	}
	if uint64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	payload := (*buf)[:n]
	if _, err := io.ReadFull(br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}
