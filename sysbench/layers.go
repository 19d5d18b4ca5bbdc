package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pstore/internal/b2w"
	"pstore/internal/durability"
	"pstore/internal/engine"
	"pstore/internal/storage"
)

// traceDir is where traced runs leave their spans, relative to the
// checkout root.
func traceDir(cfg runConfig) string { return filepath.Join(filepath.Dir(cfg.Work), "traces") }

// traceLayers fetches the server's spans, writes both sides' spans out, and
// derives the per-layer latencies of the traced base phase from them: a
// request's first procedure span is its primary execution (or, for a read,
// the replica that served it); a write's second is the standby's apply.
func (g *gen) traceLayers(r *report, work string) error {
	dir := traceDir(g.cfg)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", g.cfg.Workload, g.cfg.Seed))
	serverPath, err := filepath.Abs(stem + "-server.jsonl")
	if err != nil {
		return err
	}
	var res map[string]any
	if err := g.srv.call("spans "+serverPath, &res); err != nil {
		return err
	}
	if e, ok := res["err"]; ok {
		return fmt.Errorf("writing server spans: %v", e)
	}
	spans, err := readSpans(serverPath)
	if err != nil {
		return err
	}
	if err := g.writeClientSpans(stem + "-client.jsonl"); err != nil {
		return err
	}
	r.note("spans: %s-{server,client}.jsonl (%d server, %d client)", stem, len(spans), len(g.clientLog))

	procs := map[string][]spanRec{}
	for _, s := range spans {
		if s.Name == "proc" {
			procs[s.ID] = append(procs[s.ID], s)
		}
	}
	var pre, post, exec, apply, lag []float64
	for _, cs := range g.clientLog {
		ps := procs[cs.id]
		if len(ps) == 0 || cs.out == outFail {
			continue
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].Start < ps[j].Start })
		first := ps[0]
		pre = append(pre, float64(first.Start-cs.sent)/1e3)
		post = append(post, float64(cs.done-first.End)/1e3)
		exec = append(exec, float64(first.End-first.Start)/1e3)
		if !cs.read && len(ps) > 1 {
			apply = append(apply, float64(ps[1].End-ps[1].Start)/1e3)
			lag = append(lag, float64(ps[1].Start-first.End)/1e3)
		}
	}
	r.set("server.pre_exec_p50_us", "us", newDist(pre).q(0.5))
	r.set("server.pre_exec_p99_us", "us", newDist(pre).q(0.99))
	r.set("server.post_exec_p50_us", "us", newDist(post).q(0.5))
	r.set("server.post_exec_p99_us", "us", newDist(post).q(0.99))
	r.set("engine.exec_p50_us", "us", newDist(exec).q(0.5))
	r.set("engine.exec_p99_us", "us", newDist(exec).q(0.99))
	if len(apply) > 0 {
		r.set("replication.apply_p50_us", "us", newDist(apply).q(0.5))
		r.set("replication.apply_lag_p99_us", "us", newDist(lag).q(0.99))
	}
	return g.appendReplay(r, work)
}

func readSpans(path string) ([]spanRec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []spanRec
	dec := json.NewDecoder(bufio.NewReaderSize(f, 1<<20))
	for {
		var s spanRec
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

func (g *gen) writeClientSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, cs := range g.clientLog {
		fmt.Fprintf(w, `{"name":"client","id":%q,"read":%v,"due":%d,"sent":%d,"replied":%d,"outcome":%d}`+"\n",
			cs.id, cs.read, cs.due, cs.sent, cs.done, cs.out)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// appendReplay replays the traced phase's write stream through a fresh
// command log, open loop at the phase's write rate, and times each append
// until its group commit reports it durable.
func (g *gen) appendReplay(r *report, work string) error {
	writes := 0
	var phaseSpan time.Duration
	if n := len(g.clientLog); n > 1 {
		phaseSpan = time.Duration(g.clientLog[n-1].due - g.clientLog[0].due)
	}
	for _, cs := range g.clientLog {
		if !cs.read {
			writes++
		}
	}
	if writes == 0 || phaseSpan <= 0 {
		return fmt.Errorf("append replay: the traced phase has no writes")
	}
	rate := float64(writes) / phaseSpan.Seconds()
	n := int(rate * 2) // two seconds of the stream
	ops := g.nextOps(n, false)
	dir := filepath.Join(work, "append-replay")
	m, err := durability.Open(dir, 0, durability.Options{GroupCommitInterval: 2 * time.Millisecond})
	if err != nil {
		return err
	}
	lat := make([]float64, 0, n)
	acks := make(chan float64, n)
	start := time.Now()
	step := time.Duration(float64(time.Second) / rate)
	issued := 0
	for i, o := range ops {
		if o.read {
			continue
		}
		due := start.Add(time.Duration(i) * step)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		issued++
		m.Append(o.proc, o.key, o.args, func(_ uint64, err error) {
			if err == nil {
				acks <- us(time.Since(due))
			} else {
				acks <- -1
			}
		})
	}
	if err := m.Flush(); err != nil {
		return err
	}
	for i := 0; i < issued; i++ {
		if v := <-acks; v >= 0 {
			lat = append(lat, v)
		}
	}
	if err := m.Close(); err != nil {
		return err
	}
	r.set("durability.append_ack_p50_us", "us", newDist(lat).q(0.5))
	r.set("durability.append_ack_p99_us", "us", newDist(lat).q(0.99))
	r.check(len(lat) == issued, "append replay: %d of %d appends failed", issued-len(lat), issued)
	return nil
}

// recoverReplay copies partition 0's log and snapshot from the run's data
// directory and times Recover over the copy.
func recoverReplay(r *report, dataDir, work string) error {
	src := filepath.Join(dataDir, "partition-00000")
	dst := filepath.Join(work, "recover-copy")
	if err := copyDir(src, dst); err != nil {
		return err
	}
	m, err := durability.Open(dst, 0, durability.Options{})
	if err != nil {
		return err
	}
	defer m.Close()
	part := storage.NewPartition(0, 512, nil) // the snapshot restores ownership
	for _, t := range b2w.Tables {
		part.CreateTable(t)
	}
	reg := engine.NewRegistry()
	b2w.Register(reg)
	t0 := time.Now()
	st, err := m.Recover(part, reg)
	if err != nil {
		return fmt.Errorf("recover replay: %w", err)
	}
	el := time.Since(t0)
	recs := st.Txns + st.Skipped + st.BucketsIn + st.BucketsOut
	r.set("durability.recover_records_per_s", "1/s", ratio(float64(recs), el.Seconds()))
	r.note("recover replay: %d records, %d rows, snapshot=%v, in %v", recs, part.RowCount(), st.SnapshotLoaded, el)
	return nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
