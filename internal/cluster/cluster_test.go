package cluster

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"pstore/internal/engine"
	"pstore/internal/storage"
)

func testRegistry() *engine.Registry {
	reg := engine.NewRegistry()
	reg.Register("Put", func(tx *engine.Txn) error {
		return tx.Put("T", tx.Key, map[string]string{"v": tx.Arg("v")})
	})
	reg.Register("Get", func(tx *engine.Txn) error {
		r, ok, err := tx.Get("T", tx.Key)
		if err != nil {
			return err
		}
		if !ok {
			return tx.Abort("not found")
		}
		tx.SetOut("v", r.Cols["v"])
		return nil
	})
	return reg
}

func testConfig() Config {
	return Config{
		InitialNodes:      2,
		PartitionsPerNode: 2,
		NBuckets:          64,
		Tables:            []string{"T"},
		Registry:          testRegistry(),
	}
}

func TestClusterBasicRouting(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		res := c.Call(&engine.Txn{Proc: "Put", Key: key, Args: map[string]string{"v": key}})
		if res.Err != nil {
			t.Fatalf("put %s: %v", key, res.Err)
		}
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		res := c.Call(&engine.Txn{Proc: "Get", Key: key})
		if res.Err != nil {
			t.Fatalf("get %s: %v", key, res.Err)
		}
		if res.Out["v"] != key {
			t.Errorf("get %s = %q", key, res.Out["v"])
		}
	}
	if n, err := c.TotalRows(); err != nil || n != 100 {
		t.Errorf("TotalRows = %d, %v", n, err)
	}
	if c.Latencies().Count() != 200 {
		t.Errorf("latencies recorded = %d, want 200", c.Latencies().Count())
	}
	if c.OfferedLoad().Total() != 200 {
		t.Errorf("offered = %d, want 200", c.OfferedLoad().Total())
	}
}

func TestClusterValidation(t *testing.T) {
	bad := testConfig()
	bad.InitialNodes = 0
	if _, err := New(bad); err == nil {
		t.Error("InitialNodes=0 should fail")
	}
	bad = testConfig()
	bad.PartitionsPerNode = 0
	if _, err := New(bad); err == nil {
		t.Error("PartitionsPerNode=0 should fail")
	}
	bad = testConfig()
	bad.NBuckets = 1
	if _, err := New(bad); err == nil {
		t.Error("tiny NBuckets should fail")
	}
	bad = testConfig()
	bad.Registry = nil
	if _, err := New(bad); err == nil {
		t.Error("nil registry should fail")
	}
}

func TestClusterBucketsDealtEvenly(t *testing.T) {
	c, err := New(testConfig()) // 4 partitions, 64 buckets
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	counts := c.BucketCounts()
	if len(counts) != 4 {
		t.Fatalf("partitions = %d", len(counts))
	}
	for pid, n := range counts {
		if n != 16 {
			t.Errorf("partition %d owns %d buckets, want 16", pid, n)
		}
	}
}

func TestClusterAddRemoveNode(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	node := c.AddNode()
	if c.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", c.NumNodes())
	}
	if len(node.Partitions) != 2 {
		t.Errorf("new node partitions = %v", node.Partitions)
	}
	// New node owns nothing → removable.
	if err := c.RemoveNode(node.ID); err != nil {
		t.Fatal(err)
	}
	if c.NumNodes() != 2 {
		t.Errorf("NumNodes = %d after remove", c.NumNodes())
	}
	// Nodes owning buckets are not removable.
	first := c.Nodes()[0]
	if err := c.RemoveNode(first.ID); err == nil {
		t.Error("removing a node that owns buckets should fail")
	}
	if err := c.RemoveNode(999); err == nil {
		t.Error("removing unknown node should fail")
	}
}

func TestClusterCannotRemoveLastNode(t *testing.T) {
	cfg := testConfig()
	cfg.InitialNodes = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.RemoveNode(c.Nodes()[0].ID); err == nil {
		t.Error("removing the last node should fail")
	}
}

func TestClusterConcurrentCalls(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i)
				if res := c.Call(&engine.Txn{Proc: "Put", Key: key, Args: map[string]string{"v": "x"}}); res.Err != nil {
					t.Errorf("put: %v", res.Err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n, _ := c.TotalRows(); n != 800 {
		t.Errorf("TotalRows = %d, want 800", n)
	}
}

func TestClusterLoadRow(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.LoadRow("T", "bulk1", map[string]string{"v": "42"}); err != nil {
		t.Fatal(err)
	}
	res := c.Call(&engine.Txn{Proc: "Get", Key: "bulk1"})
	if res.Err != nil || res.Out["v"] != "42" {
		t.Errorf("get after LoadRow: %v %v", res.Out, res.Err)
	}
	// LoadRow must not count toward offered load or latencies.
	if c.OfferedLoad().Total() != 1 {
		t.Errorf("offered = %d, want 1 (only the Get)", c.OfferedLoad().Total())
	}
}

// TestLoadRowsLaterRowWins loads a key many times in one call, spread over
// several executor tasks per partition: the last row for each key wins.
func TestLoadRowsLaterRowWins(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	const keys = 64 // divides len(rows), so key k last appears at len(rows)-keys+k
	rows := make([]storage.Row, 10*loadTaskRows)
	for i := range rows {
		rows[i] = storage.Row{Key: fmt.Sprintf("k%d", i%keys), Cols: map[string]string{"v": strconv.Itoa(i)}}
	}
	if err := c.LoadRows("T", rows); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
		want := strconv.Itoa(len(rows) - keys + k)
		if res := c.Call(&engine.Txn{Proc: "Get", Key: fmt.Sprintf("k%d", k)}); res.Err != nil || res.Out["v"] != want {
			t.Errorf("k%d = %q (%v), want %q", k, res.Out["v"], res.Err, want)
		}
	}
	if n, _ := c.TotalRows(); n != keys {
		t.Errorf("TotalRows = %d, want %d", n, keys)
	}
}

// TestLoadRowsRetainsNoRows pins LoadRows' contract that the caller may
// reuse rows and their maps once it returns. With k=1 and a data directory,
// a second call reuses and rewrites every map of the first, and then every
// map is scribbled over again; the primaries, the standbys and the
// recovered command log must all hold exactly what each call was given.
func TestLoadRowsRetainsNoRows(t *testing.T) {
	const n = 3000
	cfg := replConfig(1)
	cfg.Tables = []string{"T", "U"}
	cfg.DataDir = t.TempDir()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{Key: fmt.Sprintf("k%d", i), Cols: map[string]string{"v": fmt.Sprintf("first-%d", i)}}
	}
	if err := c.LoadRows("T", rows); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		rows[i].Key = fmt.Sprintf("u%d", i)
		rows[i].Cols["v"] = fmt.Sprintf("second-%d", i)
		rows[i].Cols["w"] = "x"
	}
	if err := c.LoadRows("U", rows); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		rows[i].Key = "scribbled"
		rows[i].Cols["v"] = "scribbled"
		delete(rows[i].Cols, "w")
	}

	// The oracle loads the same content from maps nobody touches again.
	ocfg := testConfig()
	ocfg.Tables = cfg.Tables
	oracle, err := New(ocfg)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Stop()
	for i := 0; i < n; i++ {
		if err := oracle.LoadRow("T", fmt.Sprintf("k%d", i), map[string]string{"v": fmt.Sprintf("first-%d", i)}); err != nil {
			t.Fatal(err)
		}
		if err := oracle.LoadRow("U", fmt.Sprintf("u%d", i), map[string]string{"v": fmt.Sprintf("second-%d", i), "w": "x"}); err != nil {
			t.Fatal(err)
		}
	}
	want, wantRows, err := oracle.ContentChecksum()
	if err != nil {
		t.Fatal(err)
	}
	if sum, rows, err := c.ContentChecksum(); err != nil || sum != want || rows != wantRows {
		t.Fatalf("primaries hold %d rows (sum %x, %v), oracle %d rows (sum %x)", rows, sum, err, wantRows, want)
	}
	waitQuiesced(t, c)
	if err := c.VerifyReplicas(); err != nil {
		t.Fatalf("VerifyReplicas: %v", err)
	}
	c.Stop()

	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if !r.Recovered() {
		t.Fatal("restart on the data directory did not recover")
	}
	if sum, rows, err := r.ContentChecksum(); err != nil || sum != want || rows != wantRows {
		t.Fatalf("recovered %d rows (sum %x, %v), oracle %d rows (sum %x)", rows, sum, err, wantRows, want)
	}
}

// BenchmarkLoadRows measures bulk-load throughput: 200k rows into a fresh
// in-memory 2×2 cluster per iteration, loaded by one LoadRows call.
func BenchmarkLoadRows(b *testing.B) {
	const n = 200_000
	rows := make([]storage.Row, n)
	for i := range rows {
		key := fmt.Sprintf("row-%08d", i)
		rows[i] = storage.Row{Key: key, Cols: map[string]string{"v": key}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := New(testConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := c.LoadRows("T", rows); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.Stop()
		b.StartTimer()
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func TestClusterStopIdempotent(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.Stop()
	c.Stop()
}
