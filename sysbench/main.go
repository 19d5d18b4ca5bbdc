// Command sysbench is P-Store's system benchmark. It starts the server in
// its own OS process, drives open-loop B2W traffic at it over loopback TCP
// from this process, checks the results, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the gated end-to-end set; with -trace 1 the
// run also records spans and the metrics are the per-layer set. See
// README.md for the workloads, the metric definitions and how the layers map
// onto the end-to-end numbers.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash sysbench/run.sh --workload oltp-k1-durable --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// runConfig is one benchmark invocation.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	Work     string // scratch directory for data dirs and span files
}

func benchMain(args []string, stdout io.Writer) int {
	var cfg runConfig
	var trace int
	fs := flag.NewFlagSet("sysbench", flag.ContinueOnError)
	fs.StringVar(&cfg.Workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.Seed, "seed", 1, "workload seed (inputs are a pure function of it)")
	fs.IntVar(&cfg.Seconds, "seconds", 20, "measured traffic per run, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	fs.StringVar(&cfg.Work, "work", ".bench_build/work", "scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.Trace = trace == 1
	// One P for the generator leaves the server process the rest of a
	// small host; the generator's work per request is a few microseconds.
	runtime.GOMAXPROCS(1)
	// Fewer generator collections: a GC cycle on the generator's only P
	// would delay reply handling and read as server latency.
	debug.SetGCPercent(400)
	w, ok := workloads[cfg.Workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "sysbench: unknown workload %q (have %s)\n", cfg.Workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if cfg.Seconds < 1 {
		fmt.Fprintln(os.Stderr, "sysbench: -seconds must be at least 1")
		return 2
	}
	rep := newReport(cfg)
	err := w(cfg, rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sysbench: %s: %v\n", cfg.Workload, err)
		if !rep.ran {
			return 1
		}
		rep.fail("%v", err)
	}
	return rep.finish(stdout)
}

// metricVal is one reported number.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and correctness verdict.
type report struct {
	cfg       runConfig
	ran       bool // traffic was sent, so a verdict can be printed
	attempted int64
	failed    int64
	problems  []string
	vals      map[string]metricVal
	notes     []string
}

func newReport(cfg runConfig) *report {
	return &report{cfg: cfg, vals: map[string]metricVal{}}
}

func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.vals[name] = metricVal{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// zero sets to 0 every per-layer metric not yet set whose name starts with
// one of prefixes: the workload does not exercise that layer.
func (r *report) zero(prefixes ...string) {
	for _, m := range perLayer {
		if _, ok := r.vals[m.name]; ok {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(m.name, p) {
				r.set(m.name, m.unit, 0)
			}
		}
	}
}

// fail records a correctness violation; the run prints correct=false and
// exits non-zero.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// check fails the run when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

// finish prints every metric, then the result line. It returns the exit
// code: non-zero when a correctness check failed or a reported metric is
// missing.
func (r *report) finish(out io.Writer) int {
	fp := hostFingerprint()
	fpj, _ := json.Marshal(fp)
	fmt.Fprintf(out, "# workload=%s seed=%d seconds=%d trace=%v host=%s\n",
		r.cfg.Workload, r.cfg.Seed, r.cfg.Seconds, r.cfg.Trace, fpj)
	for _, n := range r.notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	names := make([]string, 0, len(r.vals))
	for n := range r.vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.vals[n]
		fmt.Fprintf(out, "%-40s %14.6g %s\n", n, v.Value, v.Unit)
	}
	want := endToEnd
	if r.cfg.Trace {
		want = perLayer
	}
	res := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricVal{}}
	for _, m := range want {
		v, ok := r.vals[m.name]
		if !ok {
			r.fail("metric %s was not measured", m.name)
			continue
		}
		if v.Unit != m.unit {
			r.fail("metric %s has unit %s, want %s", m.name, v.Unit, m.unit)
		}
		res.Metrics[m.name] = v
	}
	if r.attempted < 1 {
		r.fail("no transaction was attempted")
		res.Attempted = 1
		res.Failed = 1
	}
	for _, p := range r.problems {
		fmt.Fprintf(out, "# CHECK FAILED: %s\n", p)
		fmt.Fprintf(os.Stderr, "sysbench: check failed: %s\n", p)
	}
	res.Correct = len(r.problems) == 0
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sysbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(out, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}
