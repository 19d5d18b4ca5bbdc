package replication

import (
	"bufio"
	"fmt"
	"net"
	"testing"
	"time"

	"pstore/internal/durability"
	"pstore/internal/logrec"
	"pstore/internal/metrics"
)

// TestTailAcksRecordFollowedByHeartbeat: a heartbeat that arrives in the
// same read buffer as a record must not swallow that record's ack. A
// hand-rolled hub sends one write holding a record and then a heartbeat,
// and nothing after it; the ack has to come from the drained buffer, not
// from the keepalive, which is set to fire only after 10 s.
func TestTailAcksRecordFollowedByHeartbeat(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	opts := Options{Seed: 1, AckTimeout: 30 * time.Second}.Normalized()
	rep := NewReplica(0, 16, "standby", testReg(), opts, newTestEvents())
	defer rep.Kill()
	tail := StartTail(ln.Addr().String(), rep, nil, opts, newTestEvents())
	defer tail.Stop()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	var buf []byte
	readAck := func() uint64 {
		t.Helper()
		payload, err := readShipFrame(br, &buf)
		if err != nil {
			t.Fatalf("reading ack: %v", err)
		}
		lsn, err := decodeAck(payload)
		if err != nil {
			t.Fatal(err)
		}
		return lsn
	}
	if _, err := readShipFrame(br, &buf); err != nil {
		t.Fatalf("reading subscribe: %v", err)
	}
	if _, err := conn.Write(encodeHello(&Attachment{Epoch: 1})); err != nil {
		t.Fatal(err)
	}
	if got := readAck(); got != 0 {
		t.Fatalf("session-start ack = %d, want 0", got)
	}

	rec := encodeFrame(&logrec.Record{LSN: 1, Epoch: 1, Kind: logrec.Put, Tab: "T", Key: "k",
		Args: map[string]string{"v": "1"}})
	if _, err := conn.Write(append(rec, encodeHeartbeat()...)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if got := readAck(); got != 1 {
		t.Fatalf("ack after record+heartbeat = %d, want 1", got)
	}
}

// TestStandbyOneFsyncPerShippedBatch: a durable standby makes each shipped
// batch durable with the one flush it issues when the batch is drained —
// logging a transaction must not start a group commit of its own. The
// primary writes 100 batches, waiting for each to be acked; every batch
// needs one fsync before its ack, and there may be no more fsyncs than
// drained batches.
func TestStandbyOneFsyncPerShippedBatch(t *testing.T) {
	const batches, perBatch = 100, 32
	rig := newShipRig(t, Options{Seed: 1})
	// No timer commits: every fsync is one something asked for.
	rep, err := OpenReplica(0, 16, "standby", testReg(), t.TempDir(),
		durability.Options{GroupCommitInterval: time.Hour}, rig.opts, newTestEvents())
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Kill()
	events := newTestEvents()
	tail := StartTail(rig.hub.Addr(), rep, nil, rig.opts, events)
	defer tail.Stop()
	fsyncs := func() int64 {
		rep.mu.Lock()
		defer rep.mu.Unlock()
		return rep.mgr.Fsyncs()
	}
	drains := func() int64 { return events.Hist(metrics.HistReplStandbyFsyncBatch).Count() }

	rig.write("seed")
	waitAck(t, rep, 1)
	fsync0, drain0 := fsyncs(), drains()
	lsn := uint64(1)
	for b := 0; b < batches; b++ {
		for i := 0; i < perBatch; i++ {
			rig.write(fmt.Sprintf("b%d-%d", b, i))
		}
		lsn += perBatch
		waitAck(t, rep, lsn)
	}
	nf, nd := fsyncs()-fsync0, drains()-drain0
	t.Logf("%d batches: %d drains, %d fsyncs", batches, nd, nf)
	if nf < batches {
		t.Fatalf("%d fsyncs for %d acked batches: an ack ran ahead of durability", nf, batches)
	}
	if nf > nd {
		t.Fatalf("%d fsyncs for %d drained batches: records started their own group commits", nf, nd)
	}
}
