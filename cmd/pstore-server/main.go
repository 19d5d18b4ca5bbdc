// Command pstore-server runs a P-Store cluster as a standalone process,
// serving the B2W stored procedures over TCP (see internal/server for the
// protocol). Clients connect with cmd/pstore-client or the server.Client
// library; scale requests perform live migrations while transactions
// continue to execute.
//
// With -data-dir set the server is durable: committed transactions are
// group-committed to per-partition command logs before being acked,
// partitions snapshot periodically, and a restart (even after a crash)
// recovers the database from the latest snapshots plus log tails and skips
// preloading. On SIGINT/SIGTERM the server shuts down gracefully: it stops
// accepting connections, drains the executors, snapshots every partition
// and flushes/closes the logs before exiting.
//
// With -replicas k set, every partition ships its command log to k
// synchronous standbys hosted on other nodes; writes ack only after all live
// standbys confirm, session-consistent reads (pstore-client read) are served
// from standbys, and killing a node (pstore-client kill-node) promotes the
// caught-up standby within seconds (see internal/replication).
//
// With -chaos set the server runs under seeded fault injection for
// resilience testing: accepted connections drop/delay/duplicate/sever
// writes, random executors freeze briefly, migration bucket moves fail
// transiently, and — with the partition keys — a seeded schedule cuts and
// heals directed network links between nodes and the failover monitor,
// exercising split-brain fencing end to end. All of it runs on a
// reproducible schedule (see internal/faultinject).
//
// Usage:
//
//	pstore-server -addr 127.0.0.1:7070 -nodes 2 -partitions 2 -preload 1000 \
//	    -data-dir /var/lib/pstore
//	pstore-server -chaos 'seed=42,drop=0.01,sever=0.001,freeze=0.1,movefail=0.05'
//	pstore-server -replicas 1 -chaos 'seed=7,partition=0.2,partitionfor=500ms,partitionevery=250ms'
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pstore/internal/b2w"
	"pstore/internal/cluster"
	"pstore/internal/durability"
	"pstore/internal/engine"
	"pstore/internal/faultinject"
	"pstore/internal/migration"
	"pstore/internal/profiling"
	"pstore/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7070", "listen address")
		nodes        = flag.Int("nodes", 2, "initial nodes")
		partitions   = flag.Int("partitions", 2, "partitions per node")
		nBuckets     = flag.Int("buckets", 512, "hash buckets (migration granularity)")
		stockItems   = flag.Int("stock", 2000, "stock catalog size to preload")
		preload      = flag.Int("preload", 1000, "shopping carts to preload")
		serviceTime  = flag.Duration("service-time", 200*time.Microsecond, "synthetic per-transaction work")
		replicas     = flag.Int("replicas", 0, "synchronous standbys per partition (k-safety; 0 = no replication)")
		dataDir      = flag.String("data-dir", "", "durability directory (empty = in-memory only)")
		fsyncEvery   = flag.Bool("fsync-every-txn", false, "fsync per transaction instead of group commit")
		groupCommit  = flag.Duration("group-commit", 2*time.Millisecond, "group-commit fsync interval")
		snapInterval = flag.Duration("snapshot-interval", time.Minute, "periodic snapshot/log-truncation interval")
		chaosSpec    = flag.String("chaos", "", "fault-injection spec, e.g. 'seed=42,drop=0.01,sever=0.001,freeze=0.1,movefail=0.05,partition=0.2' (empty = no chaos)")
		cpuProf      = flag.String("cpuprofile", "", "write a CPU profile to this file (flushed on graceful shutdown)")
		memProf      = flag.String("memprofile", "", "write an allocation profile to this file on graceful shutdown")
		blockProf    = flag.String("blockprofile", "", "write a blocking profile to this file on graceful shutdown")
	)
	flag.Parse()

	stopProf, err := profiling.Start(profiling.Flags{CPU: *cpuProf, Mem: *memProf, Block: *blockProf})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pstore-server: %v\n", err)
		os.Exit(1)
	}

	// Chaos mode: one seeded injector drives connection faults, executor
	// freezes, migration move failures, and network partitions on a
	// reproducible schedule. Built before the cluster because the partition
	// matrix must be wired into the cluster config (link-aware monitor
	// probes, matrix-gated replication conns).
	var inj *faultinject.Injector
	var chaosOpts faultinject.Options
	if *chaosSpec != "" {
		opts, err := faultinject.ParseSpec(*chaosSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pstore-server: %v\n", err)
			os.Exit(1)
		}
		chaosOpts = opts
		inj = faultinject.New(opts)
	}

	reg := engine.NewRegistry()
	b2w.Register(reg)
	cfg := cluster.Config{
		InitialNodes:      *nodes,
		PartitionsPerNode: *partitions,
		NBuckets:          *nBuckets,
		Tables:            b2w.Tables,
		Registry:          reg,
		Engine: engine.Config{
			ServiceTime:      *serviceTime,
			MigrationRowCost: *serviceTime / 20,
		},
		DataDir:           *dataDir,
		ReplicationFactor: *replicas,
		Durability: durability.Options{
			SyncEvery:           *fsyncEvery,
			GroupCommitInterval: *groupCommit,
			SnapshotInterval:    *snapInterval,
		},
	}
	if inj != nil && chaosOpts.PartitionProb > 0 {
		m := inj.Matrix()
		cfg.Links = m
		cfg.LinkConnWrap = m.WrapConn
	}
	c, err := cluster.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pstore-server: %v\n", err)
		os.Exit(1)
	}

	if c.Recovered() {
		rows, _ := c.TotalRows()
		log.Printf("pstore-server: recovered %d rows from %s, skipping preload", rows, *dataDir)
	} else {
		d := b2w.NewDriver(b2w.DriverConfig{StockItems: *stockItems, CartPool: *preload, Seed: 1})
		if err := d.Preload(c, *preload); err != nil {
			fmt.Fprintf(os.Stderr, "pstore-server: preload: %v\n", err)
			c.Stop()
			os.Exit(1)
		}
		// Preloaded rows reach the command log only through a replication
		// feed (k≥1), unsynced until the next group commit; with k=0 they
		// are not logged at all. Checkpoint so the preload survives a crash.
		if *dataDir != "" {
			if err := c.SnapshotAll(); err != nil {
				fmt.Fprintf(os.Stderr, "pstore-server: preload snapshot: %v\n", err)
				c.Stop()
				os.Exit(1)
			}
		}
	}

	mig := migration.Options{BucketsPerChunk: 2, ChunkInterval: 5 * time.Millisecond}

	var chaosStop chan struct{}
	var freezeDone, partDone <-chan struct{}
	if inj != nil {
		mig.FaultHook = inj.MoveFault
		mig.MoveRetries = 10
		chaosStop = make(chan struct{})
		freezeDone = inj.FreezeLoop(c.Executors, chaosStop)
		if chaosOpts.PartitionProb > 0 {
			// Cut/heal directed links between live nodes and the failover
			// monitor on the injector's seeded schedule. Matrix transitions
			// also land in the cluster's metrics registry.
			inj.Matrix().SetEvents(c.Events())
			partDone = inj.PartitionLoop(func() []int {
				eps := []int{faultinject.MonitorEndpoint}
				for _, n := range c.Nodes() {
					eps = append(eps, n.ID)
				}
				return eps
			}, chaosStop)
		}
		log.Printf("pstore-server: CHAOS MODE enabled (%s)", *chaosSpec)
	}

	srv := server.New(c, mig, log.Printf)
	if inj != nil {
		srv.WrapConns(inj.WrapConn)
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pstore-server: %v\n", err)
		c.Stop()
		os.Exit(1)
	}
	rows, _ := c.TotalRows()
	log.Printf("pstore-server: listening on %s (%d nodes × %d partitions, %d rows, k=%d)",
		bound, c.NumNodes(), *partitions, rows, *replicas)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	log.Printf("pstore-server: %v: shutting down", s)
	// Graceful shutdown: stop accepting/serving connections first, then
	// drain the executors and flush+close the command logs. A second signal
	// aborts immediately.
	go func() {
		<-sig
		log.Printf("pstore-server: second signal, aborting")
		os.Exit(1)
	}()
	if err := srv.Close(); err != nil {
		log.Printf("pstore-server: closing listener: %v", err)
	}
	if inj != nil {
		close(chaosStop)
		<-freezeDone
		if partDone != nil {
			<-partDone
		}
		fc := inj.Counters()
		log.Printf("pstore-server: chaos totals: drops=%d delays=%d dups=%d severs=%d movefaults=%d freezes=%d cuts=%d heals=%d blackholes=%d",
			fc.Drops, fc.Delays, fc.Dups, fc.Severs, fc.MoveFaults, fc.Freezes, fc.Cuts, fc.Heals, fc.Blackholes)
	}
	c.Stop()
	stopProf()
	log.Printf("pstore-server: shutdown complete")
}
