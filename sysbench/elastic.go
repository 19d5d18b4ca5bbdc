package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// elasticSvcFactor raises QuickScale's synthetic service time so the
// trace's peak offered load stays well under half of oltp-k1-durable's
// max_tps on a 2-vCPU host; the trace shape is left as generated.
const elasticSvcFactor = 3.0

// elasticWindows is how many equal time windows the replay is cut into for
// the best-of-blocks latencies.
const elasticWindows = 20

// elasticTraceSeed fixes the replayed day, as the paper replays fixed B2W
// days; the workload seed varies the transactions and keys within it.
const elasticTraceSeed = 3

// runElastic replays one day of the synthetic B2W trace, stretched to the
// run's seconds, open loop against a durable k=1 cluster whose predictive
// controller steps once per slot.
func runElastic(cfg runConfig, r *report) error {
	work, err := workDir(cfg)
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	day := time.Duration(cfg.Seconds) * time.Second
	acfg, err := elasticSetup(day)
	if err != nil {
		return err
	}
	sc := acfg.Scale
	d, err := loadOps(r, cfg.Seed, sc.StockItems, sc.PreloadCarts, cfg.Trace)
	if err != nil {
		return err
	}
	fresh := func(i int) serverSpec {
		return serverSpec{K: 1, Seed: cfg.Seed, Elastic: true, DayWall: day,
			DataDir: filepath.Join(work, fmt.Sprintf("data-%d", i))}
	}
	srv, _, err := setupServer(r, 5, fresh)
	if err != nil {
		return err
	}
	defer func() { srv.kill() }()
	g, err := newGen(cfg, srv, d)
	if err != nil {
		return err
	}
	defer g.closeClients()

	replay := acfg.Trace.Slice(acfg.ReplayStart, acfg.Trace.Len())
	slot := sc.SlotWall
	var dues []time.Duration
	var slotOf []int
	start := time.Since(g.epoch) + 20*time.Millisecond
	for i := 0; i < replay.Len(); i++ {
		n := int(math.Round(replay.At(i)))
		for j := 0; j < n; j++ {
			dues = append(dues, start+time.Duration(i)*slot+time.Duration(j)*slot/time.Duration(n))
			slotOf = append(slotOf, i)
		}
	}
	ops := g.nextOps(len(dues), cfg.Trace)
	// Every transaction goes through a primary, reads included, so the
	// load the controller measures is the trace's load.
	for _, o := range ops {
		o.viaPrimary = true
	}
	steal0 := readCPUTimes()
	if cfg.Trace {
		if err := srv.call("trace on", nil); err != nil {
			return err
		}
	}
	if err := srv.call("elastic-go", nil); err != nil {
		return err
	}
	r.ran = true
	avgRate := float64(len(dues)) / (time.Duration(replay.Len()) * slot).Seconds()
	p, err := g.runOps(avgRate, ops, dues, true, day/elasticWindows)
	if err != nil {
		return err
	}
	var er elasticReport
	if err := srv.call("elastic-stop", &er); err != nil {
		return err
	}
	steal1 := readCPUTimes()

	reportElastic(r, p, replay.Values, slotOf, er, g.epoch.UnixNano(), sc.SLAThreshold*time.Duration(elasticSvcFactor), sc.LatencyWindow)
	reportServerLayers(r, p, nil, true, 1)
	for _, m := range er.Moves {
		r.check(m.Err == "", "migration %d→%d failed: %s", m.From, m.To, m.Err)
	}
	if cfg.Trace {
		r.set("trace.overhead_cpu_us_per_txn", "us", 0)
		r.set("trace.overhead_read_p50_ms", "ms", 0)
		r.note("tracing overhead is measured on the oltp workloads; the replay is not repeated untraced")
		if err := srv.call("trace off", nil); err != nil {
			return err
		}
		if err := g.traceLayers(r, work); err != nil {
			return err
		}
	}

	// The replay must end with no bucket in flight, every row once in a
	// bucket its partition owns, replicas identical, stock conserved.
	var q quiesceResult
	if err := srv.call("quiesce scan", &q); err != nil {
		return err
	}
	r.check(q.Err == "", "quiesce: %s", q.Err)
	r.check(er.Migrating == 0 && q.Migrating == 0, "buckets still migrating after the replay: %d", q.Migrating)
	r.check(q.Duplicates == 0, "%d rows stored on two partitions", q.Duplicates)
	r.check(q.Misplaced == 0, "%d rows in buckets their partition does not own", q.Misplaced)
	r.check(q.Rows == q.TotalRows, "row count %d by scan, %d by partition counts", q.Rows, q.TotalRows)
	g.checkStock(r, sc.StockItems)

	g.finishCounts(r, []*phaseResult{p}, steal0, steal1)
	r.zero("max_tps", "recovery_s", "failover_s", "durability.recover_records_per_s", "replication.promote_ms")
	return nil
}

// reportElastic sets the replay's latency, cost and control metrics.
func reportElastic(r *report, p *phaseResult, load []float64, slotOf []int, er elasticReport, epochWall int64, sla, window time.Duration) {
	read, write := true, false
	rd, wr := newDist(p.latencies(&read)), newDist(p.latencies(&write))
	r.set("read_p50_ms", "ms", rd.q(0.5))
	r.set("read_p99_ms", "ms", rd.q(0.99))
	r.set("write_p50_ms", "ms", wr.q(0.5))
	r.set("write_p99_ms", "ms", wr.q(0.99))
	// Best-of-windows: the replay's equal time windows, each a block.
	var rp50, wp50 []float64
	span := p.samples[len(p.samples)-1].due - p.samples[0].due + 1
	for w := 0; w < elasticWindows; w++ {
		var rv, wv []float64
		lat := p.latencies(nil)
		for i, s := range p.samples {
			if int((s.due-p.samples[0].due)*elasticWindows/span) != w {
				continue
			}
			if p.ops[i].read {
				rv = append(rv, lat[i])
			} else {
				wv = append(wv, lat[i])
			}
		}
		if len(rv) > 0 && len(wv) > 0 {
			rp50, wp50 = append(rp50, newDist(rv).q(0.5)), append(wp50, newDist(wv).q(0.5))
		}
	}
	r.set("read_p50_best_ms", "ms", minOf(rp50))
	r.set("write_p50_best_ms", "ms", minOf(wp50))
	r.note("read p50 per window: %s", fmtFloats(rp50))
	// CPU per transaction in each window between snapshots, median over
	// windows, as the OLTP workloads take it over blocks.
	snaps := append(append([]snap{p.before}, p.snaps...), p.after)
	var cpu []float64
	for w := 1; w < len(snaps); w++ {
		a, b := snaps[w-1], snaps[w]
		n := 0
		for _, s := range p.samples {
			if done := epochWall + int64(s.done); s.out != outFail && done >= a.Wall && done < b.Wall {
				n++
			}
		}
		if n > 0 {
			cpu = append(cpu, float64(b.CPUNs-a.CPUNs)/1e3/float64(n))
		}
	}
	r.set("cpu_us_per_txn", "us", median(cpu))
	r.note("cpu_us_per_txn per window: %s (whole replay %.1f)", fmtFloats(cpu), p.cpuPerTxn())
	r.set("server.ping_p50_us", "us", median(p.pings))

	// Peak: transactions due in the busiest tenth of the slots.
	sorted := append([]float64(nil), load...)
	sort.Float64s(sorted)
	cut := sorted[len(sorted)*9/10]
	var peak, moving []float64
	all := p.latencies(nil)
	for i, s := range p.samples {
		if load[slotOf[i]] >= cut {
			peak = append(peak, all[i])
		}
		due := epochWall + int64(s.due)
		for _, m := range er.Moves {
			if due >= m.Start && due <= m.End {
				moving = append(moving, all[i])
				break
			}
		}
	}
	r.set("peak_p99_ms", "ms", newDist(peak).q(0.99))
	r.note("peak: %d transactions in slots offering >= %.0f per slot", len(peak), cut)
	r.set("avg_machines", "machines", er.AvgMachines)
	r.set("moving_p99_ms", "ms", newDist(moving).q(0.99))
	r.note("moves: %d; %d transactions due while one was in flight", len(er.Moves), len(moving))

	var moveS, rows float64
	var retries, rollbacks int64
	for _, m := range er.Moves {
		moveS += float64(m.End-m.Start) / 1e9
		rows += float64(m.Rows)
		retries += m.Retries
		rollbacks += m.Rollbacks
		r.note("move %d→%d: %.3fs, %d rows", m.From, m.To, float64(m.End-m.Start)/1e9, m.Rows)
	}
	a, b := p.before, p.after
	ev := func(name string) float64 { return float64(b.Events[name] - a.Events[name]) }
	r.set("migration.moves", "count", float64(len(er.Moves)))
	r.set("migration.move_s_mean", "s", ratio(moveS, float64(len(er.Moves))))
	r.set("migration.rows_per_s", "1/s", ratio(rows, moveS))
	r.set("migration.stall_p99_ms", "ms", float64(b.MoveStallP99Ns)/1e6)
	r.set("migration.precopy_rows", "count", ev("precopy_rows"))
	r.set("migration.delta_rows", "count", ev("delta_rows"))
	r.set("migration.delta_rounds", "count", ev("delta_rounds"))
	r.set("migration.retries", "count", float64(retries))
	r.set("migration.rollbacks", "count", float64(rollbacks))

	r.set("controller.step_p99_ms", "ms", float64(er.StepP99Ns)/1e6)
	r.note("controller: %d steps, %d forecasts over %d slots", er.Steps, er.Forecasts, len(load))
	r.set("controller.scale_outs", "count", float64(er.ScaleOuts))
	r.set("controller.scale_ins", "count", float64(er.ScaleIns))
	r.set("controller.fallbacks", "count", float64(er.Fallbacks))
	r.set("predict.forecast_p99_us", "us", float64(er.ForecastP99Ns)/1e3)
	r.set("predict.mape", "ratio", er.MAPE)

	// Table 2 style: latency windows (by due time) whose p99 misses the
	// SLA, scaled with the synthetic service time.
	wins := map[int64][]float64{}
	for i, s := range p.samples {
		wins[int64(s.due/window)] = append(wins[int64(s.due/window)], all[i])
	}
	miss := 0
	for _, v := range wins {
		if newDist(v).q(0.99) > ms(sla) {
			miss++
		}
	}
	r.set("controller.slo_miss_windows", "count", float64(miss))
	r.note("SLA %v over %v windows: %d of %d missed", sla, window, miss, len(wins))
}
