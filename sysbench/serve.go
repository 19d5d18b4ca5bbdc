package main

// The server side of the benchmark: one OS process hosting a P-Store
// cluster behind its TCP front end, built from the same public constructors
// cmd/pstore-server uses. Its per-layer numbers come from hooks the program
// exports (connection wrappers, a wrapping procedure registry, a wrapped
// predictor, Controller.Step, the cluster's event counters and histograms).
// The generator process drives it over a line protocol on stdin/stdout.

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pstore/internal/b2w"
	"pstore/internal/cluster"
	"pstore/internal/controller"
	"pstore/internal/durability"
	"pstore/internal/engine"
	"pstore/internal/experiments"
	pmetrics "pstore/internal/metrics"
	"pstore/internal/migration"
	"pstore/internal/predict"
	"pstore/internal/server"
	"pstore/internal/storage"
	"pstore/internal/timeseries"
)

// traceArg is the extra procedure argument carrying a request's trace id in
// the traced run.
const traceArg = "_trace"

// serverSpec is what the generator asks the server process to be. The OLTP
// topology is fixed at 2 nodes × 2 partitions with service time 0; the
// elastic cluster takes its shape from the trace (see elasticSetup).
type serverSpec struct {
	K            int
	DataDir      string
	Carts, Stock int
	Seed         int64
	Elastic      bool
	DayWall      time.Duration // elastic: wall time of one trace day
}

func (s serverSpec) args() []string {
	a := []string{"serve", "-k", fmt.Sprint(s.K), "-carts", fmt.Sprint(s.Carts), "-stock", fmt.Sprint(s.Stock),
		"-seed", fmt.Sprint(s.Seed)}
	if s.DataDir != "" {
		a = append(a, "-data-dir", s.DataDir)
	}
	if s.Elastic {
		a = append(a, "-elastic", "-day", s.DayWall.String())
	}
	return a
}

func parseServerSpec(args []string) (serverSpec, error) {
	var s serverSpec
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.IntVar(&s.K, "k", 0, "standbys per partition")
	fs.StringVar(&s.DataDir, "data-dir", "", "durability directory")
	fs.IntVar(&s.Carts, "carts", 2000, "preloaded carts")
	fs.IntVar(&s.Stock, "stock", 2000, "preloaded SKUs")
	fs.Int64Var(&s.Seed, "seed", 1, "workload seed")
	fs.BoolVar(&s.Elastic, "elastic", false, "run the predictive controller on the B2W trace")
	fs.DurationVar(&s.DayWall, "day", 20*time.Second, "wall time of one trace day with -elastic")
	return s, fs.Parse(args)
}

// elasticMoveWall is the wall time the planner's D stands for: moving the
// whole QuickScale database between two durable k=1 nodes over this
// substrate takes about 2s. QuickParams' D was measured in memory with k=0;
// §8.1 derives D on the system under test.
const elasticMoveWall = 2500 * time.Millisecond

// elasticSetup derives the elastic run's scale, trace, planner parameters
// and predictor; the generator calls it with the same arguments to replay
// the same trace. One trace day lasts dayWall: QuickScale's slots are
// stretched to it, and the synthetic service time is multiplied by
// elasticSvcFactor.
func elasticSetup(dayWall time.Duration) (*experiments.ApproachesConfig, error) {
	sc := experiments.QuickScale()
	sc.ServiceTime = time.Duration(float64(sc.ServiceTime) * elasticSvcFactor)
	sc.SlotWall = dayWall / time.Duration(sc.SlotsPerDay)
	params := experiments.QuickParams(sc)
	params.D = math.Ceil(float64(elasticMoveWall) / float64(sc.SlotWall))
	setup := &experiments.Setup{Scale: sc, Params: params}
	return experiments.BuildApproachesConfig(setup, 4, 1, experiments.PredictorSPAR, elasticTraceSeed)
}

// spanRec is one recorded span. Times are wall-clock nanoseconds so the
// generator can line them up with its own.
type spanRec struct {
	Name  string `json:"name"`
	ID    string `json:"id,omitempty"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
	Bytes int    `json:"bytes,omitempty"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []spanRec
}

// maxSpans caps a traced run's memory; spans past it are counted, not kept.
const maxSpans = 2_000_000

func (l *spanLog) add(s spanRec) {
	if !l.on.Load() {
		return
	}
	l.mu.Lock()
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, s)
	}
	l.mu.Unlock()
}

// connStats counts one family of wrapped connections.
type connStats struct {
	name              string
	log               *spanLog
	mu                sync.Mutex
	conns             []*countConn
	bytesIn, bytesOut atomic.Int64
	writes            atomic.Int64
}

type countConn struct {
	net.Conn
	s       *connStats
	out, in atomic.Int64
	lp, rp  int
}

func (s *connStats) wrap(c net.Conn) net.Conn {
	cc := &countConn{Conn: c, s: s, lp: portOf(c.LocalAddr()), rp: portOf(c.RemoteAddr())}
	s.mu.Lock()
	s.conns = append(s.conns, cc)
	s.mu.Unlock()
	return cc
}

func portOf(a net.Addr) int {
	if t, ok := a.(*net.TCPAddr); ok {
		return t.Port
	}
	return 0
}

func (c *countConn) Read(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(b)
	c.s.bytesIn.Add(int64(n))
	c.in.Add(int64(n))
	if c.s.log.on.Load() && n > 0 {
		c.s.log.add(spanRec{Name: c.s.name + ".read", Start: t0.UnixNano(), End: time.Now().UnixNano(), Bytes: n})
	}
	return n, err
}

func (c *countConn) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(b)
	c.s.bytesOut.Add(int64(n))
	c.out.Add(int64(n))
	c.s.writes.Add(1)
	if c.s.log.on.Load() {
		c.s.log.add(spanRec{Name: c.s.name + ".write", Start: t0.UnixNano(), End: time.Now().UnixNano(), Bytes: n})
	}
	return n, err
}

// shipBytes is the bytes the primaries' side of replication wrote, acks
// from the standbys excluded. Every tail dials the one hub port, so the hub
// side is the connections whose local port is the most common remote port.
func (s *connStats) shipBytes() (ship int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	count := map[int]int{}
	for _, c := range s.conns {
		count[c.rp]++
	}
	hub, best := 0, 0
	for p, n := range count {
		if n > best {
			hub, best = p, n
		}
	}
	for _, c := range s.conns {
		if c.lp == hub {
			ship += c.out.Load()
		}
	}
	return ship
}

// execStats is the wrapping registry's record of procedure executions.
type execStats struct {
	hist   *pmetrics.DurationHist
	calls  map[string]*atomic.Int64
	aborts map[string]*atomic.Int64
	busyNs atomic.Int64
	log    *spanLog
}

// wrappedRegistry registers every B2W procedure wrapped with timing; the
// cluster executes, replays and serves replica reads through it.
func wrappedRegistry(es *execStats) *engine.Registry {
	base := engine.NewRegistry()
	b2w.Register(base)
	reg := engine.NewRegistry()
	es.calls = map[string]*atomic.Int64{}
	es.aborts = map[string]*atomic.Int64{}
	for _, name := range base.Names() {
		p, _ := base.Lookup(name)
		calls, aborts := new(atomic.Int64), new(atomic.Int64)
		es.calls[name], es.aborts[name] = calls, aborts
		reg.Register(name, func(tx *engine.Txn) error {
			t0 := time.Now()
			err := p(tx)
			t1 := time.Now()
			es.busyNs.Add(int64(t1.Sub(t0)))
			calls.Add(1)
			if err != nil && engine.IsAbort(err) {
				aborts.Add(1)
			}
			if es.log.on.Load() {
				if id := tx.Arg(traceArg); id != "" {
					es.log.add(spanRec{Name: "proc", ID: id, Start: t0.UnixNano(), End: t1.UnixNano()})
				}
			}
			return err
		})
	}
	return reg
}

// timedModel wraps the controller's predictor to time Forecast and keep
// each one-slot-ahead forecast for the accuracy check.
type timedModel struct {
	predict.Model
	hist *pmetrics.DurationHist
	log  *spanLog
	mu   sync.Mutex
	next map[int]float64 // history length at forecast time → forecast of that slot
}

func (m *timedModel) Forecast(h *timeseries.Series, horizon int) ([]float64, error) {
	t0 := time.Now()
	f, err := m.Model.Forecast(h, horizon)
	t1 := time.Now()
	m.hist.Observe(t1.Sub(t0))
	m.log.add(spanRec{Name: "forecast", Start: t0.UnixNano(), End: t1.UnixNano()})
	if err == nil && len(f) > 0 {
		m.mu.Lock()
		m.next[h.Len()] = f[0]
		m.mu.Unlock()
	}
	return f, err
}

// moveRec is one reconfiguration the controller started.
type moveRec struct {
	Start, End int64 // wall ns
	From, To   int
	Rows       int64
	Retries    int64
	Rollbacks  int64
	Err        string
}

// serverProc is the server process's state.
type serverProc struct {
	spec     serverSpec
	c        *cluster.Cluster
	srv      *server.Server
	spans    *spanLog
	exec     *execStats
	clients  *connStats
	repl     *connStats
	queueH   *pmetrics.Hist
	maxLag   atomic.Int64
	stopSamp chan struct{}
	sampDone chan struct{}

	// Elastic only.
	acfg     *experiments.ApproachesConfig
	ctl      *controller.Controller
	model    *timedModel
	stepHist *pmetrics.DurationHist
	ctlStop  chan struct{}
	ctlDone  chan struct{}
	movesMu  sync.Mutex
	moves    []moveRec
	movesWG  sync.WaitGroup
	goWall   int64
}

func serveMain(args []string) int {
	spec, err := parseServerSpec(args)
	if err != nil {
		return 2
	}
	p, err := startServer(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sysbench serve: %v\n", err)
		return 1
	}
	return p.control(os.Stdin, os.Stdout)
}

func startServer(spec serverSpec) (*serverProc, error) {
	p := &serverProc{spec: spec, spans: &spanLog{}, queueH: pmetrics.NewHist(),
		stopSamp: make(chan struct{}), sampDone: make(chan struct{})}
	p.exec = &execStats{log: p.spans}
	p.clients = &connStats{name: "srv", log: p.spans}
	p.repl = &connStats{name: "tail", log: p.spans}
	reg := wrappedRegistry(p.exec)

	nodes, parts, carts, stock := 2, 2, spec.Carts, spec.Stock
	var eng engine.Config
	nBuckets := 512
	latWin := time.Second
	mig := migration.Options{BucketsPerChunk: 2, ChunkInterval: 5 * time.Millisecond}
	if spec.Elastic {
		acfg, err := elasticSetup(spec.DayWall)
		if err != nil {
			return nil, err
		}
		p.acfg = acfg
		sc := acfg.Scale
		nodes = acfg.Params.RequiredMachines(acfg.Trace.At(acfg.ReplayStart))
		parts = sc.PartitionsPerNode
		eng = sc.EngineConfig()
		nBuckets = sc.NBuckets
		latWin = sc.LatencyWindow
		carts, stock = sc.PreloadCarts, sc.StockItems
		mig = acfg.Migration
	}
	cfg := cluster.Config{
		InitialNodes:      nodes,
		PartitionsPerNode: parts,
		NBuckets:          nBuckets,
		Tables:            b2w.Tables,
		Registry:          reg,
		Engine:            eng,
		LatencyWindow:     latWin,
		DataDir:           spec.DataDir,
		ReplicationFactor: spec.K,
		Durability: durability.Options{
			GroupCommitInterval: 2 * time.Millisecond,
			SnapshotInterval:    time.Minute,
		},
		ReplicationConnWrap: p.repl.wrap,
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	p.c = c
	if !c.Recovered() {
		d := b2w.NewDriver(b2w.DriverConfig{StockItems: stock, CartPool: carts, Seed: spec.Seed})
		if err := d.Preload(c, carts); err != nil {
			c.Stop()
			return nil, fmt.Errorf("preload: %w", err)
		}
		if spec.DataDir != "" {
			if err := c.SnapshotAll(); err != nil {
				c.Stop()
				return nil, fmt.Errorf("preload snapshot: %w", err)
			}
		}
	}
	if spec.Elastic {
		if err := p.initController(); err != nil {
			c.Stop()
			return nil, err
		}
	}
	p.srv = server.New(c, mig, nil)
	p.srv.WrapConns(p.clients.wrap)
	addr, err := p.srv.Listen("127.0.0.1:0")
	if err != nil {
		c.Stop()
		return nil, err
	}
	go p.sample()
	fmt.Printf("READY %s\n", addr)
	return p, nil
}

// sample polls executor queue lengths and replica lag every 2ms.
func (p *serverProc) sample() {
	defer close(p.sampDone)
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-p.stopSamp:
			return
		case <-t.C:
		}
		for _, e := range p.c.Executors() {
			p.queueH.Observe(int64(e.QueueLen()))
		}
		if p.spec.K > 0 {
			if lag := int64(p.c.ReplicationStats().MaxLagRecords); lag > p.maxLag.Load() {
				p.maxLag.Store(lag)
			}
		}
	}
}

func (p *serverProc) initController() error {
	a := p.acfg
	p.model = &timedModel{Model: a.Predictor, hist: pmetrics.NewDurationHist(), log: p.spans, next: map[int]float64{}}
	p.stepHist = pmetrics.NewDurationHist()
	var mu sync.Mutex
	prevTotal, prevAt := 0, time.Now()
	measure := func() float64 {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		total := p.c.OfferedLoad().Total()
		delta := float64(total - prevTotal)
		elapsed := now.Sub(prevAt)
		prevTotal, prevAt = total, now
		if elapsed > a.Scale.SlotWall {
			delta *= float64(a.Scale.SlotWall) / float64(elapsed)
		}
		return delta
	}
	ctl, err := controller.New(p.c, controller.Config{
		Params:               a.Params,
		Predictor:            p.model,
		History:              a.Trace.Slice(0, a.ReplayStart),
		SlotWall:             a.Scale.SlotWall,
		Horizon:              a.Horizon,
		Inflate:              a.Inflate,
		ScaleInConfirmations: 3,
		MaxNodes:             a.PeakNodes,
		Migration:            a.Migration,
		MeasureLoad:          measure,
	})
	p.ctl = ctl
	return err
}

// runController calls Step once per slot until stopped, recording each
// step's duration and every reconfiguration it starts.
func (p *serverProc) runController() {
	defer close(p.ctlDone)
	t := time.NewTicker(p.acfg.Scale.SlotWall)
	defer t.Stop()
	var last *migration.Migration
	for {
		select {
		case <-p.ctlStop:
			return
		case <-t.C:
		}
		t0 := time.Now()
		err := p.ctl.Step(context.Background())
		t1 := time.Now()
		p.stepHist.Observe(t1.Sub(t0))
		p.spans.add(spanRec{Name: "step", Start: t0.UnixNano(), End: t1.UnixNano()})
		if err != nil {
			log.Printf("sysbench serve: controller step: %v", err)
		}
		if m := p.ctl.InFlight(); m != nil && m != last {
			last = m
			p.movesWG.Add(1)
			go func(m *migration.Migration, start time.Time) {
				defer p.movesWG.Done()
				rep, err := m.Wait()
				r := moveRec{Start: start.UnixNano(), End: time.Now().UnixNano(), From: m.FromNodes(), To: m.ToNodes()}
				if rep != nil {
					r.Rows, r.Retries, r.Rollbacks = rep.RowsMoved, rep.Retries, rep.Rollbacks
				}
				if err != nil {
					r.Err = err.Error()
				}
				p.movesMu.Lock()
				p.moves = append(p.moves, r)
				p.movesMu.Unlock()
			}(m, t0)
		}
	}
}

// control serves the generator's commands, one per line, each answered by
// one JSON line.
func (p *serverProc) control(in *os.File, out *os.File) int {
	sc := bufio.NewScanner(in)
	enc := json.NewEncoder(out)
	reply := func(v any) {
		if err := enc.Encode(v); err != nil {
			// Always answer, so the generator never waits on a lost reply.
			_ = enc.Encode(map[string]string{"err": err.Error()})
		}
	}
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "snap":
			reply(p.snapshot())
		case "quiesce":
			reply(p.quiesce(len(f) > 1 && f[1] == "scan"))
		case "probe":
			reply(p.probeKeys())
		case "elastic-go":
			p.goWall = time.Now().UnixNano()
			p.ctlStop, p.ctlDone = make(chan struct{}), make(chan struct{})
			go p.runController()
			reply(map[string]int64{"at": p.goWall})
		case "elastic-stop":
			reply(p.elasticStop())
		case "trace":
			p.spans.on.Store(len(f) > 1 && f[1] == "on")
			reply(map[string]bool{"on": p.spans.on.Load()})
		case "spans":
			reply(p.writeSpans(f[1]))
		case "quit":
			p.shutdown()
			reply(map[string]bool{"ok": true})
			return 0
		default:
			reply(map[string]string{"err": "unknown command " + f[0]})
		}
	}
	// Stdin closed: the generator is gone.
	p.shutdown()
	return 0
}

func (p *serverProc) shutdown() {
	if p.ctlStop != nil {
		select {
		case <-p.ctlDone:
		default:
			close(p.ctlStop)
			<-p.ctlDone
		}
	}
	p.movesWG.Wait()
	close(p.stopSamp)
	<-p.sampDone
	_ = p.srv.Close()
	p.c.Stop()
}

// histSum summarizes a value histogram.
type histSum struct {
	Mean     float64
	P50, P99 int64
}

func sumHist(h *pmetrics.Hist) histSum {
	mean := h.Mean()
	if math.IsNaN(mean) {
		mean = 0
	}
	return histSum{Mean: mean, P50: h.Quantile(0.5), P99: h.Quantile(0.99)}
}

// snap is the server's counters at one instant; the generator subtracts
// two snaps to get a phase's numbers.
type snap struct {
	Wall            int64
	GOMAXPROCS      int
	CPUNs           int64 // user+sys of this process
	Shed            int64
	Executors       int
	ExecBusyNs      int64
	ProcAborts      map[string]int64
	ProcCalls       map[string]int64
	QueueP99        int64
	Rows            int
	HeapBytes       uint64
	GCCPU, TotalCPU float64
	GCPauses        []uint64
	GCPauseBounds   []float64
	Events          map[string]int64
	Hists           map[string]histSum
	Repl            cluster.ReplicationStats
	MaxLag          int64
	ClientBytesIn   int64
	ClientBytesOut  int64
	ClientWrites    int64
	ReplShipBytes   int64
	DirBytes        int64
	MoveStallP99Ns  int64
}

func (p *serverProc) snapshot() snap {
	s := snap{Wall: time.Now().UnixNano(), GOMAXPROCS: runtime.GOMAXPROCS(0), Events: p.c.Events().Snapshot(), Hists: map[string]histSum{},
		ProcAborts: map[string]int64{}, ProcCalls: map[string]int64{}}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.CPUNs = ru.Utime.Nano() + ru.Stime.Nano()
	}
	execs := p.c.Executors()
	s.Executors = len(execs)
	for _, e := range execs {
		s.Shed += e.Shed()
	}
	s.ExecBusyNs = p.exec.busyNs.Load()
	for name, n := range p.exec.aborts {
		s.ProcAborts[name] = n.Load()
		s.ProcCalls[name] = p.exec.calls[name].Load()
	}
	s.QueueP99 = p.queueH.Quantile(0.99)
	s.Rows, _ = p.c.TotalRows()
	for _, name := range p.c.Events().HistNames() {
		s.Hists[name] = sumHist(p.c.Events().Hist(name))
	}
	s.Repl = p.c.ReplicationStats()
	s.MaxLag = p.maxLag.Load()
	s.ClientBytesIn, s.ClientBytesOut = p.clients.bytesIn.Load(), p.clients.bytesOut.Load()
	s.ClientWrites = p.clients.writes.Load()
	s.ReplShipBytes = p.repl.shipBytes()
	if p.spec.DataDir != "" {
		s.DirBytes = dirSize(p.spec.DataDir)
	}
	s.MoveStallP99Ns = int64(p.c.MoveStalls().Quantile(0.99))

	ms := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(ms)
	if ms[0].Value.Kind() == metrics.KindUint64 {
		s.HeapBytes = ms[0].Value.Uint64()
	}
	if ms[1].Value.Kind() == metrics.KindFloat64 {
		s.GCCPU = ms[1].Value.Float64()
	}
	if ms[2].Value.Kind() == metrics.KindFloat64 {
		s.TotalCPU = ms[2].Value.Float64()
	}
	if ms[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := ms[3].Value.Float64Histogram()
		s.GCPauses = append([]uint64(nil), h.Counts...)
		for _, b := range h.Buckets {
			s.GCPauseBounds = append(s.GCPauseBounds, math.Max(-math.MaxFloat64, math.Min(b, math.MaxFloat64)))
		}
	}
	return s
}

func dirSize(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // files come and go during a live run
		}
		if info, err := d.Info(); err == nil && !d.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// quiesceResult is the end-of-phase correctness state.
type quiesceResult struct {
	Sum        uint64
	Rows       int
	TotalRows  int
	Migrating  int
	Misplaced  int
	Duplicates int
	Err        string
}

// quiesce waits for the replicas to catch up, proves them identical to
// their primaries, and checks that every row sits in a bucket its partition
// owns, once.
func (p *serverProc) quiesce(scan bool) quiesceResult {
	var r quiesceResult
	sum, rows, err := p.c.QuiescedChecksum(20 * time.Second)
	if err == nil {
		err = p.c.VerifyReplicas()
	}
	r.Sum, r.Rows = sum, rows
	r.TotalRows, _ = p.c.TotalRows()
	r.Migrating = p.c.MigratingCount()
	seen := map[string]bool{}
	for _, e := range p.c.Executors() {
		if !scan {
			break // only the elastic run moves buckets
		}
		derr := e.Do(func(part *storage.Partition) (int, error) {
			for _, t := range part.Tables() {
				if _, err := part.Scan(t, func(row storage.Row) bool {
					k := t + "/" + row.Key
					if seen[k] {
						r.Duplicates++
					}
					seen[k] = true
					if !part.OwnsKey(row.Key) {
						r.Misplaced++
					}
					return true
				}); err != nil {
					return 0, err
				}
			}
			return 0, nil
		})
		if derr != nil && err == nil {
			err = derr
		}
	}
	if err != nil {
		r.Err = err.Error()
	}
	return r
}

// probeKeys returns one cart key routed to each partition, for the
// failover probe writes.
func (p *serverProc) probeKeys() map[string]string {
	want := map[int]bool{}
	for _, e := range p.c.Executors() {
		want[e.Partition()] = true
	}
	out := map[string]string{}
	for i := 0; len(out) < len(want) && i < 100000; i++ {
		k := fmt.Sprintf("cart-probe-%d", i)
		pid := p.c.RouteKey(k)
		if want[pid] {
			if _, ok := out[fmt.Sprint(pid)]; !ok {
				out[fmt.Sprint(pid)] = k
			}
		}
	}
	return out
}

// elasticReport is the controller's side of the elastic replay.
type elasticReport struct {
	AvgMachines              float64
	Moves                    []moveRec
	StepP99Ns, ForecastP99Ns int64
	Steps, Forecasts         int64
	MAPE                     float64
	ScaleOuts, ScaleIns      int
	Fallbacks                int
	Migrating                int
}

func (p *serverProc) elasticStop() elasticReport {
	close(p.ctlStop)
	<-p.ctlDone
	if err := p.ctl.WaitIdle(); err != nil {
		log.Printf("sysbench serve: last migration: %v", err)
	}
	p.movesWG.Wait()
	stop := time.Now().UnixNano()
	r := elasticReport{Migrating: p.c.MigratingCount()}
	r.AvgMachines = avgMachines(p.c.Allocation().Series(), p.goWall, stop)
	p.movesMu.Lock()
	r.Moves = append(r.Moves, p.moves...)
	p.movesMu.Unlock()
	sort.Slice(r.Moves, func(i, j int) bool { return r.Moves[i].Start < r.Moves[j].Start })
	r.StepP99Ns, r.Steps = int64(p.stepHist.Quantile(0.99)), p.stepHist.Count()
	r.ForecastP99Ns, r.Forecasts = int64(p.model.hist.Quantile(0.99)), p.model.hist.Count()
	for _, ev := range p.ctl.Events() {
		switch ev.Kind {
		case "scale-out":
			r.ScaleOuts++
		case "scale-in":
			r.ScaleIns++
		case "fallback":
			r.Fallbacks++
		}
	}
	// One-slot-ahead accuracy: the forecast made with L slots of history
	// against the load then measured for slot L.
	hist := p.ctl.History()
	p.model.mu.Lock()
	var errSum float64
	var n int
	for l, f := range p.model.next {
		if l < hist.Len() {
			if a := hist.At(l); a > 0 {
				errSum += abs(f-a) / a
				n++
			}
		}
	}
	p.model.mu.Unlock()
	r.MAPE = ratio(errSum, float64(n))
	return r
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// avgMachines time-averages an allocation step series over [from, to].
func avgMachines(series []struct {
	At       time.Time
	Machines int
}, from, to int64) float64 {
	if to <= from || len(series) == 0 {
		return 0
	}
	cur := series[0].Machines
	var area float64
	at := from
	for _, pt := range series {
		t := pt.At.UnixNano()
		if t <= from {
			cur = pt.Machines
			continue
		}
		if t >= to {
			break
		}
		area += float64(cur) * float64(t-at)
		at, cur = t, pt.Machines
	}
	area += float64(cur) * float64(to-at)
	return area / float64(to-from)
}

func (p *serverProc) writeSpans(path string) map[string]any {
	p.spans.mu.Lock()
	spans := p.spans.spans
	p.spans.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return map[string]any{"err": err.Error()}
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return map[string]any{"err": err.Error()}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return map[string]any{"err": err.Error()}
	}
	if err := f.Close(); err != nil {
		return map[string]any{"err": err.Error()}
	}
	return map[string]any{"spans": len(spans)}
}
