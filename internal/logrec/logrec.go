// Package logrec is the command-log record: the one record type and binary
// codec shared by the write-ahead log, snapshot files, the replication ship
// stream and disk catch-up. A partition's history is a sequence of records
// in LSN order; applying them in order rebuilds the partition.
package logrec

//pstore:deterministic — records are replayed on replicas and after crashes
// and compared byte-for-byte across runs; map iteration order must not
// leak into the encoding.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sort"

	"pstore/internal/storage"
)

// Kind says what a record does. Kinds stay below 100: the ship stream's
// control messages use the byte values from 100 up, so a frame's first
// byte always identifies it.
type Kind byte

const (
	Txn       Kind = 1 // a committed stored-procedure invocation
	BucketIn  Kind = 2 // bucket received in a migration handoff, contents inline
	BucketOut Kind = 3 // bucket handed off to a peer
	Put       Kind = 4 // a direct row load (cluster.LoadRows)
	Snapshot  Kind = 5 // snapshot file header; Count bucket-in records follow
)

// Record is one command-log entry.
type Record struct {
	LSN   uint64 // log sequence number, contiguous per partition
	Epoch uint64 // epoch of the primary that logged or shipped it
	Kind  Kind

	Proc string            // Txn
	Key  string            // Txn, Put
	Tab  string            // Put
	Args map[string]string // Txn arguments; Put columns

	Bucket int                 // BucketOut; BucketIn, where it equals Data.Bucket
	Data   *storage.BucketData // BucketIn

	// Snapshot header: the partition and cluster bucket count the snapshot
	// was taken under, its tables, and how many bucket records follow.
	Part, NBuckets, Count int
	Tables                []string
}

// Decode errors. A truncated or padded record must fail loudly: a replica
// or a recovery that silently mis-decoded one would diverge.
var (
	ErrTruncated = errors.New("logrec: truncated record")
	ErrTrailing  = errors.New("logrec: trailing bytes after record")
	ErrTorn      = errors.New("logrec: torn or corrupt frame")
)

// Append appends rec's encoding to buf: kind, LSN and epoch, then the
// kind's fields. Maps, tables and rows are written in sorted order, so
// equal records always encode to equal bytes.
func Append(buf []byte, rec *Record) []byte {
	buf = append(buf, byte(rec.Kind))
	buf = binary.AppendUvarint(buf, rec.LSN)
	buf = binary.AppendUvarint(buf, rec.Epoch)
	switch rec.Kind {
	case Txn:
		buf = AppendString(buf, rec.Proc)
		buf = AppendString(buf, rec.Key)
		buf = appendStringMap(buf, rec.Args)
	case Put:
		buf = AppendString(buf, rec.Tab)
		buf = AppendString(buf, rec.Key)
		buf = appendStringMap(buf, rec.Args)
	case BucketOut:
		buf = binary.AppendUvarint(buf, uint64(rec.Bucket))
	case BucketIn:
		buf = appendBucketData(buf, rec.Data)
	case Snapshot:
		buf = binary.AppendUvarint(buf, uint64(rec.Part))
		buf = binary.AppendUvarint(buf, uint64(rec.NBuckets))
		buf = binary.AppendUvarint(buf, uint64(rec.Count))
		buf = binary.AppendUvarint(buf, uint64(len(rec.Tables)))
		for _, t := range rec.Tables {
			buf = AppendString(buf, t)
		}
	}
	return buf
}

// AppendString appends a length-prefixed string.
func AppendString(buf []byte, s string) []byte {
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
		buf = AppendString(buf, k)
		buf = AppendString(buf, m[k])
	}
	return buf
}

// appendBucketData writes one bucket's rows with tables and rows sorted, so
// two replicas encoding identical state produce identical bytes.
func appendBucketData(buf []byte, d *storage.BucketData) []byte {
	buf = binary.AppendUvarint(buf, uint64(d.Bucket))
	names := make([]string, 0, len(d.Tables))
	for name := range d.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		rows := append([]storage.Row(nil), d.Tables[name]...)
		sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
		buf = AppendString(buf, name)
		buf = binary.AppendUvarint(buf, uint64(len(rows)))
		for _, r := range rows {
			buf = AppendString(buf, r.Key)
			buf = appendStringMap(buf, r.Cols)
		}
	}
	return buf
}

// Decode parses one encoded record, consuming data exactly. It accepts
// only the canonical encoding Append writes — sorted, duplicate-free map
// keys, table names and row keys — so every record it returns re-encodes
// to the bytes it came from. The record does not alias data.
func Decode(data []byte) (*Record, error) {
	r := NewReader(data)
	kind, err := r.Byte()
	if err != nil {
		return nil, err
	}
	rec := &Record{Kind: Kind(kind)}
	if rec.LSN, err = r.Uvarint(); err != nil {
		return nil, err
	}
	if rec.Epoch, err = r.Uvarint(); err != nil {
		return nil, err
	}
	switch rec.Kind {
	case Txn:
		if rec.Proc, err = r.String(); err != nil {
			return nil, err
		}
		if rec.Key, err = r.String(); err != nil {
			return nil, err
		}
		if rec.Args, err = r.stringMap(); err != nil {
			return nil, err
		}
	case Put:
		if rec.Tab, err = r.String(); err != nil {
			return nil, err
		}
		if rec.Key, err = r.String(); err != nil {
			return nil, err
		}
		if rec.Args, err = r.stringMap(); err != nil {
			return nil, err
		}
	case BucketOut:
		if rec.Bucket, err = r.int(); err != nil {
			return nil, err
		}
	case BucketIn:
		if rec.Data, err = r.bucketData(); err != nil {
			return nil, err
		}
		rec.Bucket = rec.Data.Bucket
	case Snapshot:
		if rec.Part, err = r.int(); err != nil {
			return nil, err
		}
		if rec.NBuckets, err = r.int(); err != nil {
			return nil, err
		}
		if rec.Count, err = r.int(); err != nil {
			return nil, err
		}
		n, err := r.count()
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			t, err := r.String()
			if err != nil {
				return nil, err
			}
			rec.Tables = append(rec.Tables, t)
		}
	default:
		return nil, fmt.Errorf("logrec: unknown record kind %d", kind)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return rec, nil
}

// Reader decodes the codec's primitives from one payload; the replication
// stream's control messages are built from the same primitives.
type Reader struct {
	data []byte
	pos  int
}

// NewReader returns a Reader positioned at the start of data.
func NewReader(data []byte) Reader { return Reader{data: data} }

// Uvarint reads one unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.pos += n
	return v, nil
}

// Byte reads one byte.
func (r *Reader) Byte() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, ErrTruncated
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

// String reads one length-prefixed string.
func (r *Reader) String() (string, error) {
	n, err := r.Uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.data)-r.pos) {
		return "", ErrTruncated
	}
	s := string(r.data[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

// Rest returns the bytes not yet consumed.
func (r *Reader) Rest() []byte { return r.data[r.pos:] }

// Done reports ErrTrailing unless every byte has been consumed.
func (r *Reader) Done() error {
	if r.pos != len(r.data) {
		return ErrTrailing
	}
	return nil
}

// int reads a uvarint that must fit a non-negative int.
func (r *Reader) int() (int, error) {
	v, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt {
		return 0, fmt.Errorf("logrec: value %d out of range", v)
	}
	return int(v), nil
}

// count reads an element count, rejecting one the remaining bytes cannot
// hold (every element takes at least one byte) before anything is
// allocated for it.
func (r *Reader) count() (int, error) {
	n, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(r.data)-r.pos) {
		return 0, ErrTruncated
	}
	return int(n), nil
}

// ascending rejects a key that does not sort strictly after the previous
// one: the canonical encoding has no unsorted or duplicate keys.
func ascending(prev, next string, i int) error {
	if i > 0 && next <= prev {
		return fmt.Errorf("logrec: key %q out of order after %q", next, prev)
	}
	return nil
}

func (r *Reader) stringMap() (map[string]string, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	m := make(map[string]string, n)
	var prev string
	for i := 0; i < n; i++ {
		k, err := r.String()
		if err != nil {
			return nil, err
		}
		if err := ascending(prev, k, i); err != nil {
			return nil, err
		}
		v, err := r.String()
		if err != nil {
			return nil, err
		}
		m[k], prev = v, k
	}
	return m, nil
}

func (r *Reader) bucketData() (*storage.BucketData, error) {
	b, err := r.int()
	if err != nil {
		return nil, err
	}
	nt, err := r.count()
	if err != nil {
		return nil, err
	}
	d := &storage.BucketData{Bucket: b, Tables: make(map[string][]storage.Row, nt)}
	var prevName string
	for i := 0; i < nt; i++ {
		name, err := r.String()
		if err != nil {
			return nil, err
		}
		if err := ascending(prevName, name, i); err != nil {
			return nil, err
		}
		nr, err := r.count()
		if err != nil {
			return nil, err
		}
		rows := make([]storage.Row, 0, nr)
		var prevKey string
		for j := 0; j < nr; j++ {
			key, err := r.String()
			if err != nil {
				return nil, err
			}
			if err := ascending(prevKey, key, j); err != nil {
				return nil, err
			}
			prevKey = key
			cols, err := r.stringMap()
			if err != nil {
				return nil, err
			}
			if cols == nil {
				cols = map[string]string{}
			}
			rows = append(rows, storage.Row{Key: key, Cols: cols})
		}
		d.Tables[name], prevName = rows, name
	}
	return d, nil
}

// Checksummed frames hold records on disk, in WAL segments and snapshot
// files: a uint32 payload length and the payload's CRC-32 (IEEE), both
// little-endian, then the payload.
const (
	frameHeaderSize = 8
	maxFrame        = 1 << 30 // a longer length field is garbage
)

// AppendFrame appends rec to buf as one checksummed frame.
func AppendFrame(buf []byte, rec *Record) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, frameHeaderSize)...)
	buf = Append(buf, rec)
	payload := buf[start+frameHeaderSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// ReadFrame reads and decodes one checksummed frame, staging its bytes in
// *buf (reused across calls). It returns io.EOF at a clean end of input
// and an error wrapping ErrTorn for a frame cut short or failing its
// checksum. A frame whose checksum holds but whose payload does not decode
// returns the decode error: it was written that way, not torn.
func ReadFrame(r io.Reader, buf *[]byte) (*Record, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: header: %v", ErrTorn, err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > maxFrame {
		return nil, fmt.Errorf("%w: length %d", ErrTorn, n)
	}
	if uint32(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	payload := (*buf)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrTorn, err)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrTorn)
	}
	return Decode(payload)
}
