package b2w

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"pstore/internal/cluster"
	"pstore/internal/engine"
	"pstore/internal/replication"
	"pstore/internal/storage"
)

// referencePreload is the row-at-a-time load Preload replaced, kept as the
// oracle for the chunked, pipelined one: one LoadRow per row, keys formatted
// by fmt, and the same RNG calls in the same order.
func referencePreload(d *Driver, c *cluster.Cluster, carts int) error {
	for i := 0; i < d.cfg.StockItems; i++ {
		cols := map[string]string{
			"available": "1000000",
			"reserved":  "0",
			"sold":      "0",
			"name":      fmt.Sprintf("item %d", i),
		}
		if err := c.LoadRow(TableStock, fmt.Sprintf("sku-%08d", i), cols); err != nil {
			return err
		}
	}
	for i := 0; i < carts; i++ {
		d.mu.Lock()
		key := fmt.Sprintf("cart-%016x", d.rng.Uint64())
		sku := fmt.Sprintf("sku-%08d", d.rng.Intn(d.cfg.StockItems))
		d.mu.Unlock()
		lines, err := encodeLines([]Line{{SKU: sku, Quantity: 1, Price: 9.99}})
		if err != nil {
			return err
		}
		if err := c.LoadRow(TableCart, key, map[string]string{"lines": lines, "status": StatusOpen}); err != nil {
			return err
		}
		d.mu.Lock()
		d.rememberCartLocked(key)
		d.mu.Unlock()
	}
	return nil
}

func newB2WCluster(t *testing.T, nodes, parts int, mod func(*cluster.Config)) *cluster.Cluster {
	t.Helper()
	reg := engine.NewRegistry()
	Register(reg)
	cfg := cluster.Config{
		InitialNodes:      nodes,
		PartitionsPerNode: parts,
		NBuckets:          64,
		Tables:            Tables,
		Registry:          reg,
	}
	if mod != nil {
		mod(&cfg)
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func partitionRowCounts(t *testing.T, c *cluster.Cluster) []int {
	t.Helper()
	var counts []int
	for _, e := range c.Executors() {
		var n int
		if err := e.Do(func(p *storage.Partition) (int, error) {
			n = p.RowCount()
			return 0, nil
		}); err != nil {
			t.Fatal(err)
		}
		counts = append(counts, n)
	}
	return counts
}

func checksum(t *testing.T, c *cluster.Cluster) (uint64, int) {
	t.Helper()
	sum, rows, err := c.ContentChecksum()
	if err != nil {
		t.Fatal(err)
	}
	return sum, rows
}

// TestPreloadMatchesRowAtATimeLoad pins Preload's contract: for a given
// seed the chunked load builds the same database and leaves the driver in
// the same state as loading one row at a time, so generators that preload a
// private copy to learn a server's keys keep addressing exactly those keys.
// The cart count spans several chunks.
func TestPreloadMatchesRowAtATimeLoad(t *testing.T) {
	const stock, carts = 300, 2*preloadChunkRows + 123
	for _, topo := range []struct{ nodes, parts int }{{1, 1}, {2, 2}} {
		for _, seed := range []int64{1, 9001} {
			t.Run(fmt.Sprintf("%dx%d/seed=%d", topo.nodes, topo.parts, seed), func(t *testing.T) {
				cfg := DriverConfig{StockItems: stock, CartPool: carts / 2, Seed: seed}
				got, want := NewDriver(cfg), NewDriver(cfg)
				gc := newB2WCluster(t, topo.nodes, topo.parts, nil)
				wc := newB2WCluster(t, topo.nodes, topo.parts, nil)
				if err := got.Preload(gc, carts); err != nil {
					t.Fatal(err)
				}
				if err := referencePreload(want, wc, carts); err != nil {
					t.Fatal(err)
				}
				gs, gr := checksum(t, gc)
				ws, wr := checksum(t, wc)
				if gs != ws || gr != wr {
					t.Fatalf("Preload: %d rows (sum %x), reference %d rows (sum %x)", gr, gs, wr, ws)
				}
				if wr != stock+carts {
					t.Fatalf("reference holds %d rows, want %d", wr, stock+carts)
				}
				if g, w := partitionRowCounts(t, gc), partitionRowCounts(t, wc); !reflect.DeepEqual(g, w) {
					t.Fatalf("per-partition rows %v, reference %v", g, w)
				}
				for i := 0; i < 1000; i++ {
					g, w := got.Next(), want.Next()
					if g.Proc != w.Proc || g.Key != w.Key || !reflect.DeepEqual(g.Args, w.Args) {
						t.Fatalf("op %d: Preload driver gives %s %s %v, reference %s %s %v",
							i, g.Proc, g.Key, g.Args, w.Proc, w.Key, w.Args)
					}
				}
			})
		}
	}
}

// TestPreloadReplicatesAndRecovers checks the two places a preload leaves
// copies besides the primaries: with k=1 every standby holds what its
// primary holds, and with a data directory a checkpointed preload comes
// back whole after a restart.
func TestPreloadReplicatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	withK1 := func(cfg *cluster.Config) {
		cfg.ReplicationFactor = 1
		cfg.Replication = replication.Options{Seed: 1}
		cfg.DataDir = dir
	}
	c := newB2WCluster(t, 2, 2, withK1)
	if err := NewDriver(DriverConfig{StockItems: 200, CartPool: 1000, Seed: 3}).Preload(c, 3000); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitReplicasCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyReplicas(); err != nil {
		t.Fatalf("VerifyReplicas after Preload: %v", err)
	}
	sum, rows := checksum(t, c)
	if err := c.SnapshotAll(); err != nil {
		t.Fatal(err)
	}
	c.Stop()

	r := newB2WCluster(t, 2, 2, withK1)
	if !r.Recovered() {
		t.Fatal("restart on the data directory did not recover")
	}
	if rs, rr := checksum(t, r); rs != sum || rr != rows {
		t.Fatalf("recovered %d rows (sum %x), preloaded %d rows (sum %x)", rr, rs, rows, sum)
	}
}

// TestPaddedKeyMatchesSprintf pins the key formatter to the fmt verbs it
// replaced, byte for byte.
func TestPaddedKeyMatchesSprintf(t *testing.T) {
	for _, v := range []uint64{0, 1, 1 << 32, math.MaxUint64} {
		for _, prefix := range []string{"cart-", "sttx-", "ckout-"} {
			if got, want := paddedKey(prefix, v, 16, 16), fmt.Sprintf(prefix+"%016x", v); got != want {
				t.Errorf("paddedKey(%q, %d, 16, 16) = %q, want %q", prefix, v, got, want)
			}
		}
	}
	d := NewDriver(DriverConfig{})
	for _, i := range []int{0, 1, 99999999, 100000000} {
		if got, want := d.skuKey(i), fmt.Sprintf("sku-%08d", i); got != want {
			t.Errorf("skuKey(%d) = %q, want %q", i, got, want)
		}
	}
}
