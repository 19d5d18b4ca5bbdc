package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pstore/internal/b2w"
	"pstore/internal/cluster"
	"pstore/internal/engine"
	"pstore/internal/server"
	"pstore/internal/storage"
)

var workloads = map[string]func(runConfig, *report) error{
	"oltp-k1-durable": func(cfg runConfig, r *report) error { return runOLTP(cfg, r, oltpK1Durable) },
	"oltp-mem-1m":     func(cfg runConfig, r *report) error { return runOLTP(cfg, r, oltpMem1M) },
	"elastic-diurnal": runElastic,
}

func workloadNames() []string {
	var n []string
	for k := range workloads {
		n = append(n, k)
	}
	sort.Strings(n)
	return n
}

// oltpSpec fixes one OLTP workload: topology, database size and the offered
// rates. Rates are transactions per second over loopback TCP.
type oltpSpec struct {
	k       int
	durable bool
	carts   int
	stock   int
	base    float64
	peak    float64
	setups  int // server starts per run; setup_s is their median
}

// ladder is the rates offered for max_tps, and ladderLimit the p99 a rung
// must meet. The limit sits well above the 2–30 ms base-rate p99s measured
// on the reference host, so only a saturated rung fails it.
var ladder = []float64{6000, 7000, 8000, 9200, 10600, 12200, 14000, 16000, 18400, 21000}

const ladderLimit = 50 * time.Millisecond

var (
	oltpK1Durable = oltpSpec{k: 1, durable: true, carts: 2000, stock: 2000,
		base: 3000, peak: 9000, setups: 5}
	oltpMem1M = oltpSpec{k: 0, carts: 1_000_000, stock: 2000,
		base: 5000, peak: 12000, setups: 3}
)

// isRead reports whether a B2W procedure is read-only (the Get* family).
func isRead(proc string) bool { return strings.HasPrefix(proc, "Get") }

// gen is the generator's state for one run.
type gen struct {
	cfg       runConfig
	epoch     time.Time
	clients   []*server.Client
	driver    *b2w.Driver
	srv       *child
	nextID    int64
	errMu     sync.Mutex
	errs      map[string]int
	clientLog []clientSpan
	lateAll   []float64
}

// clientSpan is a traced request as the client saw it (wall ns).
type clientSpan struct {
	id              string
	read            bool
	due, sent, done int64
	out             outcome
}

// phaseResult is one constant-rate phase.
type phaseResult struct {
	rate          float64
	ops           []*op
	samples       []sample
	before, after snap
	snaps         []snap // taken during the phase, when asked for
	pings         []float64
}

func (p *phaseResult) latencies(read *bool) []float64 {
	var v []float64
	for i, s := range p.samples {
		if read != nil && p.ops[i].read != *read {
			continue
		}
		if s.out == outFail {
			v = append(v, math.Inf(1)) // a failed request misses every limit
			continue
		}
		v = append(v, ms(s.latency()))
	}
	return v
}

func (p *phaseResult) count(o outcome) int64 {
	var n int64
	for _, s := range p.samples {
		if s.out == o {
			n++
		}
	}
	return n
}

func (p *phaseResult) completed() int64 { return p.count(outOK) + p.count(outAbort) }

// cpuPerTxn is the server process's user+sys CPU per completed transaction.
func (p *phaseResult) cpuPerTxn() float64 {
	return ratio(float64(p.after.CPUNs-p.before.CPUNs)/1e3, float64(p.completed()))
}

func newGen(cfg runConfig, srv *child, d *b2w.Driver) (*gen, error) {
	g := &gen{cfg: cfg, epoch: time.Now(), driver: d, srv: srv, errs: map[string]int{}}
	if err := g.dial(); err != nil {
		return nil, err
	}
	return g, nil
}

// conns is the generator's connection count: one per CPU of this host, and
// no more than two.
func conns() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	return n
}

func (g *gen) dial() error {
	g.closeClients()
	for i := 0; i < conns(); i++ {
		c, err := server.DialOptions(g.srv.addr, server.Options{CallTimeout: 10 * time.Second})
		if err != nil {
			return err
		}
		g.clients = append(g.clients, c)
	}
	return nil
}

func (g *gen) closeClients() {
	for _, c := range g.clients {
		c.Close()
	}
	g.clients = nil
}

func (g *gen) nextOps(n int, traced bool) []*op {
	ops := make([]*op, n)
	for i := range ops {
		t := g.driver.Next()
		o := &op{proc: t.Proc, key: t.Key, args: t.Args, read: isRead(t.Proc)}
		if o.args == nil {
			o.args = map[string]string{}
		}
		if traced {
			g.nextID++
			o.args[traceArg] = strconv.FormatInt(g.nextID, 36)
		}
		ops[i] = o
	}
	return ops
}

func (g *gen) noteErr(err error) {
	msg := err.Error()
	if len(msg) > 120 {
		msg = msg[:120]
	}
	g.errMu.Lock()
	g.errs[msg]++
	g.errMu.Unlock()
}

// runOps issues ops open loop at the given dues and snapshots the server
// around them. Meanwhile a side goroutine pings the server every 10ms (ping)
// and snapshots it every snapEvery (0: never).
func (g *gen) runOps(rate float64, ops []*op, dues []time.Duration, ping bool, snapEvery time.Duration) (*phaseResult, error) {
	p := &phaseResult{rate: rate, ops: ops}
	var err error
	if p.before, err = g.srv.snap(); err != nil {
		return nil, err
	}
	var stopSide chan struct{}
	var sideWG sync.WaitGroup
	if ping || snapEvery > 0 {
		stopSide = make(chan struct{})
		sideWG.Add(1)
		go func() {
			defer sideWG.Done()
			t := time.NewTicker(10 * time.Millisecond)
			defer t.Stop()
			nextSnap := time.Now().Add(snapEvery)
			for i := 0; ; i++ {
				select {
				case <-stopSide:
					return
				case <-t.C:
				}
				if ping {
					t0 := time.Now()
					if g.clients[i%len(g.clients)].Ping() == nil {
						p.pings = append(p.pings, us(time.Since(t0)))
					}
				}
				if snapEvery > 0 && !time.Now().Before(nextSnap) {
					if s, err := g.srv.snap(); err == nil {
						p.snaps = append(p.snaps, s)
					}
					nextSnap = nextSnap.Add(snapEvery)
				}
			}
		}()
	}
	p.samples = openLoop(g.epoch, dues, func(i int) outcome {
		o, err := issue(g.clients[i%len(g.clients)], ops[i])
		if err != nil {
			g.noteErr(err)
		}
		return o
	})
	if stopSide != nil {
		close(stopSide)
		sideWG.Wait()
	}
	if p.after, err = g.srv.snap(); err != nil {
		return nil, err
	}
	wallEpoch := g.epoch.UnixNano()
	for i, s := range p.samples {
		g.lateAll = append(g.lateAll, ms(s.late()))
		if id := ops[i].args[traceArg]; id != "" {
			g.clientLog = append(g.clientLog, clientSpan{id: id, read: ops[i].read,
				due: wallEpoch + int64(s.due), sent: wallEpoch + int64(s.sent), done: wallEpoch + int64(s.done), out: s.out})
		}
	}
	return p, nil
}

// phase runs a constant-rate phase of dur.
func (g *gen) phase(rate float64, dur time.Duration, traced, ping bool) (*phaseResult, error) {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	ops := g.nextOps(n, traced)
	dues := uniformDues(time.Since(g.epoch)+5*time.Millisecond, rate, n)
	return g.runOps(rate, ops, dues, ping, 0)
}

// loadOps builds the generator's op source: a B2W driver preloaded into a
// private single-partition cluster with the server's seed and sizes, so the
// generator addresses exactly the server's preloaded keys. The private
// cluster also serves the traced run's storage replay, which runs here,
// before the server starts.
func loadOps(r *report, seed int64, stock, carts int, trace bool) (*b2w.Driver, error) {
	reg := engine.NewRegistry()
	b2w.Register(reg)
	c, err := cluster.New(cluster.Config{InitialNodes: 1, PartitionsPerNode: 1, NBuckets: 512,
		Tables: b2w.Tables, Registry: reg})
	if err != nil {
		return nil, err
	}
	d := b2w.NewDriver(b2w.DriverConfig{StockItems: stock, CartPool: carts, Seed: seed})
	if err := d.Preload(c, carts); err != nil {
		c.Stop()
		return nil, err
	}
	if trace {
		if err := storageReplay(r, c, seed); err != nil {
			c.Stop()
			return nil, err
		}
	}
	c.Stop()
	runtime.GC()
	debug.FreeOSMemory()
	return d, nil
}

// setupServer starts the server setups times and keeps the last; the
// median start-to-listening time is setup_s. fresh returns a clean spec for
// each start (a new data directory when durable).
func setupServer(r *report, setups int, fresh func(i int) serverSpec) (*child, serverSpec, error) {
	var times []float64
	for i := 0; ; i++ {
		spec := fresh(i)
		ch, err := spawn(spec)
		if err != nil {
			return nil, spec, err
		}
		times = append(times, ch.setup.Seconds())
		if i == setups-1 {
			r.set("setup_s", "s", median(times))
			r.note("setup_s samples: %v", fmtFloats(times))
			return ch, spec, nil
		}
		if err := ch.quit(); err != nil {
			return nil, spec, err
		}
		if spec.DataDir != "" {
			os.RemoveAll(spec.DataDir)
		}
	}
}

func fmtFloats(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(s, " ")
}

// runOLTP is the fixed-topology workload: base rate, peak rate, a rate
// ladder for max_tps, then (durable) recovery and failover.
func runOLTP(cfg runConfig, r *report, w oltpSpec) error {
	work, err := workDir(cfg)
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	d, err := loadOps(r, cfg.Seed, w.stock, w.carts, cfg.Trace)
	if err != nil {
		return err
	}
	fresh := func(i int) serverSpec {
		s := serverSpec{K: w.k, Carts: w.carts, Stock: w.stock, Seed: cfg.Seed}
		if w.durable {
			s.DataDir = filepath.Join(work, fmt.Sprintf("data-%d", i))
		}
		return s
	}
	srv, spec, err := setupServer(r, w.setups, fresh)
	if err != nil {
		return err
	}
	defer func() { srv.kill() }()
	g, err := newGen(cfg, srv, d)
	if err != nil {
		return err
	}
	defer g.closeClients()

	S := time.Duration(cfg.Seconds) * time.Second
	steal0 := readCPUTimes()
	if _, err := g.phase(w.base, 2*time.Second, false, false); err != nil {
		return err
	}
	r.ran = true
	var phases []*phaseResult
	baseBlocks, err := g.blocks(w.base, S*4/10, true)
	if err != nil {
		return err
	}
	phases = append(phases, baseBlocks...)
	base := merge(baseBlocks)
	var traced *phaseResult
	if cfg.Trace {
		if err := srv.call("trace on", nil); err != nil {
			return err
		}
		traced, err = g.phase(w.base, S*4/10, true, false)
		if err != nil {
			return err
		}
		if err := srv.call("trace off", nil); err != nil {
			return err
		}
		phases = append(phases, traced)
	}
	peakBlocks, err := g.blocks(w.peak, S*2/10, false)
	if err != nil {
		return err
	}
	phases = append(phases, peakBlocks...)
	maxTPS, rungs, err := g.ladder(S * 4 / 10)
	if err != nil {
		return err
	}
	phases = append(phases, rungs...)
	steal1 := readCPUTimes()

	reportLatency(r, baseBlocks, peakBlocks)
	r.set("max_tps", "1/s", maxTPS)
	r.note("max_tps limit: p99 <= %v with the last tenth's median also within it", ladderLimit)
	for _, p := range rungs {
		r.note("ladder %6.0f/s: p99 %.2f ms, failed %d", p.rate, newDist(p.latencies(nil)).q(0.99), p.count(outFail))
	}
	reportServerLayers(r, base, traced, w.durable, w.k)
	if cfg.Trace {
		r.set("trace.overhead_cpu_us_per_txn", "us", traced.cpuPerTxn()-base.cpuPerTxn())
		read := true
		r.set("trace.overhead_read_p50_ms", "ms", newDist(traced.latencies(&read)).q(0.5)-newDist(base.latencies(&read)).q(0.5))
		if err := g.traceLayers(r, work); err != nil {
			return err
		}
	}

	// Correctness at quiesce: replicas identical to primaries, stock
	// conserved per SKU.
	var q quiesceResult
	if err := srv.call("quiesce", &q); err != nil {
		return err
	}
	r.check(q.Err == "", "quiesce: %s", q.Err)
	g.checkStock(r, w.stock)

	if w.durable { // SIGKILL recovery, then failover
		if cfg.Trace {
			if err := recoverReplay(r, spec.DataDir, work); err != nil {
				return err
			}
		}
		srv, err = g.crashRecover(r, spec, q)
		if err != nil {
			return err
		}
		if err := g.failover(r); err != nil {
			return err
		}
	}
	g.finishCounts(r, phases, steal0, steal1)
	r.set("avg_machines", "machines", 2)
	r.zero("migration.", "controller.", "predict.", "moving_p99_ms", "durability.", "replication.", "recovery_s", "failover_s")
	return nil
}

// ladder offers rising rates for the time budget and returns the highest
// rung that met the latency limit without a growing backlog.
func (g *gen) ladder(budget time.Duration) (float64, []*phaseResult, error) {
	rung := budget / time.Duration(len(ladder))
	var best float64
	var out []*phaseResult
	for _, rate := range ladder {
		p, err := g.phase(rate, rung, false, false)
		if err != nil {
			return 0, nil, err
		}
		out = append(out, p)
		lat := p.latencies(nil)
		tail := lat[len(lat)*9/10:]
		ok := newDist(lat).q(0.99) <= ms(ladderLimit) && median(tail) <= ms(ladderLimit)
		if !ok {
			break
		}
		best = rate
	}
	return best, out, nil
}

// reportLatency sets the latency metrics and the CPU cost. The gated
// read/write latencies are best-of-blocks: each base block's p50, and the
// smallest of them. Interference from the rest of the host only adds delay,
// so the least-disturbed block is the steady estimate, while a change that
// lengthens the path raises every block. CPU is the median over blocks. The
// ungated p50/p99 and the peak p99 are taken over the whole phase.
func reportLatency(r *report, baseBlocks, peakBlocks []*phaseResult) {
	read, write := true, false
	var rp50, wp50, cpu []float64
	for _, b := range baseBlocks {
		rp50 = append(rp50, newDist(b.latencies(&read)).q(0.5))
		wp50 = append(wp50, newDist(b.latencies(&write)).q(0.5))
		cpu = append(cpu, b.cpuPerTxn())
	}
	r.set("read_p50_best_ms", "ms", minOf(rp50))
	r.set("write_p50_best_ms", "ms", minOf(wp50))
	r.set("cpu_us_per_txn", "us", median(cpu))
	base, peak := merge(baseBlocks), merge(peakBlocks)
	rd, wr := newDist(base.latencies(&read)), newDist(base.latencies(&write))
	r.set("read_p50_ms", "ms", rd.q(0.5))
	r.set("read_p99_ms", "ms", rd.q(0.99))
	r.set("write_p50_ms", "ms", wr.q(0.5))
	r.set("write_p99_ms", "ms", wr.q(0.99))
	pk := newDist(peak.latencies(nil))
	r.set("peak_p99_ms", "ms", pk.q(0.99))
	r.note("base: %d blocks at %.0f/s, %d reads and %d writes; p99 is the %.4f quantile for reads, %.4f for writes",
		len(baseBlocks), base.rate, rd.n(), wr.n(), supportedQuantile(rd.n(), 0.99), supportedQuantile(wr.n(), 0.99))
	r.note("base read p50 per block: %s", fmtFloats(rp50))
	r.note("base write p50 per block: %s", fmtFloats(wp50))
	r.note("base cpu_us_per_txn per block: %s", fmtFloats(cpu))
	r.note("peak: %d transactions at %.0f/s; p99 is the %.4f quantile", pk.n(), peak.rate, supportedQuantile(pk.n(), 0.99))
}

// blockTxns is the size of one measurement block: enough for a steady p50
// of reads and of writes.
const blockTxns = 1000

// blocks runs a constant-rate phase of dur as back-to-back blocks of about
// blockTxns transactions.
func (g *gen) blocks(rate float64, dur time.Duration, ping bool) ([]*phaseResult, error) {
	n := int(rate*dur.Seconds()) / blockTxns
	if n < 1 {
		n = 1
	}
	var out []*phaseResult
	for i := 0; i < n; i++ {
		p, err := g.phase(rate, dur/time.Duration(n), false, ping)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// merge joins consecutive blocks into one phase for the counter-derived
// metrics.
func merge(blocks []*phaseResult) *phaseResult {
	m := &phaseResult{rate: blocks[0].rate,
		before: blocks[0].before, after: blocks[len(blocks)-1].after}
	for _, b := range blocks {
		m.ops = append(m.ops, b.ops...)
		m.samples = append(m.samples, b.samples...)
		m.pings = append(m.pings, b.pings...)
	}
	return m
}

// reportServerLayers derives the server, engine, runtime, durability and
// replication counters from the snaps around the base phase (or, traced,
// the traced base phase).
func reportServerLayers(r *report, base, traced *phaseResult, durable bool, k int) {
	p := base
	if traced != nil {
		p = traced
	}
	a, b := p.before, p.after
	txns := float64(p.completed())
	writes := 0.0
	reads := 0.0
	for i, s := range p.samples {
		if s.out == outFail {
			continue
		}
		if p.ops[i].read {
			reads++
		} else {
			writes++
		}
	}
	r.set("server.bytes_in_per_txn", "B", ratio(float64(b.ClientBytesIn-a.ClientBytesIn), txns))
	r.set("server.bytes_out_per_txn", "B", ratio(float64(b.ClientBytesOut-a.ClientBytesOut), txns))
	r.set("server.replies_per_write", "count", ratio(txns, float64(b.ClientWrites-a.ClientWrites)))
	r.set("server.ping_p50_us", "us", median(base.pings))

	r.set("engine.busy_frac", "ratio", ratio(float64(b.ExecBusyNs-a.ExecBusyNs), float64(b.Wall-a.Wall)*float64(b.Executors)))
	r.set("engine.queue_len_p99", "count", float64(b.QueueP99))
	r.set("engine.shed_frac", "ratio", ratio(float64(b.Shed-a.Shed), txns))
	var aborts, calls int64
	for name, n := range b.ProcAborts {
		da, dc := n-a.ProcAborts[name], b.ProcCalls[name]-a.ProcCalls[name]
		aborts += da
		calls += dc
		if dc > 0 {
			r.note("aborts %-24s %6d of %7d executions (%.3f)", name, da, dc, float64(da)/float64(dc))
		}
	}
	r.set("engine.abort_frac", "ratio", ratio(float64(aborts), float64(calls)))

	r.set("runtime.heap_bytes_per_row", "B", ratio(float64(b.HeapBytes), float64(b.Rows)))

	if durable {
		r.set("durability.log_bytes_per_write", "B", ratio(float64(b.DirBytes-a.DirBytes), writes))
	}
	if k > 0 {
		batch := b.Hists["repl_ship_batch_records"]
		r.set("replication.ship_batch_records_mean", "count", batch.Mean)
		r.set("replication.standby_fsync_batch_mean", "count", b.Hists["repl_standby_fsync_batch"].Mean)
		r.set("replication.ship_bytes_per_write", "B", ratio(float64(b.ReplShipBytes-a.ReplShipBytes), writes))
		ack := b.Hists["repl_ack_latency_us"]
		r.set("replication.ack_latency_p50_us", "us", float64(ack.P50))
		r.set("replication.ack_latency_p99_us", "us", float64(ack.P99))
		r.set("replication.ack_window_p99", "count", float64(b.Hists["repl_ack_window_occupancy"].P99))
		r.set("replication.window_stalls", "count", float64(b.Events["repl_ack_window_stalls"]-a.Events["repl_ack_window_stalls"]))
		r.set("replication.max_lag_records", "count", float64(b.MaxLag))
		r.set("replication.stale_waits_per_read", "ratio", ratio(float64(b.Repl.StaleWaits-a.Repl.StaleWaits), reads))
		served := float64(b.Repl.ReplicaReads - a.Repl.ReplicaReads + b.Repl.FallbackReads - a.Repl.FallbackReads)
		r.set("replication.fallback_read_frac", "ratio", ratio(float64(b.Repl.FallbackReads-a.Repl.FallbackReads), served))
	}
}

// gcPauseQuantile is the q-quantile, in seconds, of the GC pauses between
// two snaps.
func gcPauseQuantile(a, b snap, q float64) float64 {
	if len(b.GCPauses) == 0 {
		return 0
	}
	counts := make([]uint64, len(b.GCPauses))
	var total uint64
	for i := range counts {
		counts[i] = b.GCPauses[i]
		if i < len(a.GCPauses) {
			counts[i] -= a.GCPauses[i]
		}
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= target {
			hi := b.GCPauseBounds[i+1]
			if hi >= math.MaxFloat64 {
				hi = b.GCPauseBounds[i]
			}
			return hi
		}
	}
	return 0
}

// checkStock reads every SKU through the primary and checks that
// available+reserved+sold still equals the preloaded quantity.
func (g *gen) checkStock(r *report, stock int) {
	bad := 0
	for i := 0; i < stock; i++ {
		key := fmt.Sprintf("sku-%08d", i)
		res, err := g.clients[0].Call(b2w.ProcGetStock, key, nil)
		if err != nil {
			r.fail("stock %s: %v", key, err)
			return
		}
		sum := 0
		for _, c := range []string{"available", "reserved", "sold"} {
			n, _ := strconv.Atoi(res.Out[c])
			sum += n
		}
		if sum != 1_000_000 {
			bad++
		}
	}
	r.check(bad == 0, "stock not conserved on %d of %d SKUs", bad, stock)
}

// crashRecover kills the quiesced server with SIGKILL, restarts it on the
// same data directory and times the first successful read; the recovered
// content must equal the pre-kill quiesced content.
func (g *gen) crashRecover(r *report, spec serverSpec, before quiesceResult) (*child, error) {
	g.closeClients()
	t0 := time.Now()
	g.srv.kill()
	srv, err := spawn(spec)
	if err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	g.srv = srv
	for {
		if err := g.dial(); err == nil {
			if _, err := g.clients[0].Read(b2w.ProcGetStock, "sku-00000000", nil); err == nil {
				break
			}
		}
		if time.Since(t0) > 60*time.Second {
			return srv, fmt.Errorf("no successful read within 60s of restart")
		}
		time.Sleep(time.Millisecond)
	}
	r.set("recovery_s", "s", time.Since(t0).Seconds())
	var q quiesceResult
	if err := srv.call("quiesce", &q); err != nil {
		return srv, err
	}
	r.check(q.Err == "", "quiesce after restart: %s", q.Err)
	r.check(q.Sum == before.Sum && q.Rows == before.Rows,
		"content after SIGKILL+restart: %d rows sum %x, acked before kill: %d rows sum %x", q.Rows, q.Sum, before.Rows, before.Sum)
	return srv, nil
}

// failover kills node 1 and times until every partition acks a write
// again; promote_ms is until the server counts a promotion.
func (g *gen) failover(r *report) error {
	var probes map[string]string
	if err := g.srv.call("probe", &probes); err != nil {
		return err
	}
	s0, err := g.srv.snap()
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := g.clients[0].KillNode(1); err != nil {
		return fmt.Errorf("kill-node 1: %w", err)
	}
	promoted := make(chan time.Duration, 1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if s, err := g.srv.snap(); err == nil && s.Repl.Promotions > s0.Repl.Promotions {
				promoted <- time.Since(t0)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	var done atomic.Int64
	var pw sync.WaitGroup
	for _, key := range probes {
		pw.Add(1)
		go func(key string) {
			defer pw.Done()
			for time.Since(t0) < 30*time.Second {
				_, err := g.clients[0].Call(b2w.ProcAddLineToCart, key, map[string]string{"sku": "sku-00000000", "qty": "1", "price": "1.00"})
				if err == nil {
					done.Add(1)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(key)
	}
	pw.Wait()
	fo := time.Since(t0)
	close(stop)
	wg.Wait()
	r.check(int(done.Load()) == len(probes), "failover: %d of %d partitions acked a write within 30s", done.Load(), len(probes))
	r.set("failover_s", "s", fo.Seconds())
	select {
	case d := <-promoted:
		r.set("replication.promote_ms", "ms", ms(d))
	default:
		r.fail("failover: no promotion counted")
	}
	return nil
}

// finishCounts sets the run's attempted/failed totals and the generator's
// validity metrics.
func (g *gen) finishCounts(r *report, phases []*phaseResult, steal0, steal1 cpuTimes) {
	var offered, completed float64
	for _, p := range phases {
		r.attempted += int64(len(p.samples))
		r.failed += p.count(outFail)
		offered += float64(len(p.samples))
		completed += float64(p.completed())
	}
	r.set("fail_frac", "ratio", ratio(float64(r.failed), float64(r.attempted)))
	// Collections are rare on a large heap, so the GC numbers span every
	// measured phase rather than the base phase alone.
	a, b := phases[0].before, phases[len(phases)-1].after
	r.note("server process GOMAXPROCS %d (the host line shows the generator's)", a.GOMAXPROCS)
	r.set("runtime.gc_cpu_frac", "ratio", ratio(b.GCCPU-a.GCCPU, b.TotalCPU-a.TotalCPU))
	r.set("runtime.gc_pause_p99_us", "us", gcPauseQuantile(a, b, 0.99)*1e6)
	ld := newDist(g.lateAll)
	r.set("gen.late_p99_ms", "ms", ld.q(0.99))
	r.set("gen.late_max_ms", "ms", ld.max())
	r.set("gen.achieved_over_offered", "ratio", ratio(completed, offered))
	r.set("host.steal_frac", "ratio", stealFrac(steal0, steal1))
	for msg, n := range g.errs {
		r.note("error x%d: %s", n, msg)
	}
}

func workDir(cfg runConfig) (string, error) {
	dir := filepath.Join(cfg.Work, fmt.Sprintf("%s-%d", cfg.Workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// storageReplay times Get and Put through storage.Partition on the
// generator's private copy of the preloaded database, over keys sampled
// the way the mix samples them (uniformly over the preloaded rows).
func storageReplay(r *report, c *cluster.Cluster, seed int64) error {
	exec := c.Executors()[0]
	return exec.Do(func(p *storage.Partition) (int, error) {
		type key struct{ table, key string }
		var keys []key
		for _, t := range p.Tables() {
			if _, err := p.Scan(t, func(row storage.Row) bool {
				keys = append(keys, key{t, row.Key})
				return true
			}); err != nil {
				return 0, err
			}
		}
		if len(keys) == 0 {
			return 0, fmt.Errorf("storage replay: empty partition")
		}
		const n = 200_000
		idx := make([]int, n)
		x := uint64(seed)*0x9E3779B97F4A7C15 + 1
		for i := range idx {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			idx[i] = int(x % uint64(len(keys)))
		}
		rows := make([]storage.Row, n)
		t0 := time.Now()
		for i, j := range idx {
			row, ok, err := p.Get(keys[j].table, keys[j].key)
			if err != nil || !ok {
				return 0, fmt.Errorf("storage replay: get %s: %v", keys[j].key, err)
			}
			rows[i] = row
		}
		get := time.Since(t0)
		t0 = time.Now()
		for i, j := range idx {
			if err := p.Put(keys[j].table, keys[j].key, rows[i].Cols); err != nil {
				return 0, err
			}
		}
		put := time.Since(t0)
		r.set("storage.get_ns", "ns", float64(get)/n)
		r.set("storage.put_ns", "ns", float64(put)/n)
		r.set("storage.bytes_per_row", "B", ratio(float64(p.SizeBytes()), float64(p.RowCount())))
		return 0, nil
	})
}
