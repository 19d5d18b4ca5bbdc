package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the server process the benchmark
// spawns (it re-executes itself with "serve").
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// A responder that stalls must raise the measured latency of every request
// queued behind it: latency runs from when a request was due, not from when
// the responder got to it, and the schedule does not wait for replies.
func TestCoordinatedOmission(t *testing.T) {
	const n = 60
	stallFrom, stallTo := 20*time.Millisecond, 220*time.Millisecond
	dues := uniformDues(10*time.Millisecond, 1000, n) // one request per ms
	epoch := time.Now()
	samples := openLoop(epoch, dues, func(int) outcome {
		if now := time.Since(epoch); now >= stallFrom && now < stallTo {
			time.Sleep(stallTo - now) // the responder is stalled; requests queue
		}
		return outOK
	})
	stalled := 0
	for i, s := range samples {
		if s.sent < stallFrom || s.sent >= stallTo-10*time.Millisecond {
			continue
		}
		stalled++
		if want := stallTo - s.due; s.latency() < want-time.Millisecond {
			t.Errorf("request %d due %v: latency %v, want at least %v", i, s.due, s.latency(), want)
		}
		if late := s.late(); late > 20*time.Millisecond {
			t.Errorf("request %d sent %v late: the schedule must not wait for replies", i, late)
		}
	}
	if stalled < 20 {
		t.Fatalf("only %d requests were sent during the stall", stalled)
	}
	var lat []float64
	for _, s := range samples {
		lat = append(lat, ms(s.latency()))
	}
	if p90 := newDist(lat).q(0.9); p90 < ms(stallTo-stallFrom)/2 {
		t.Errorf("p90 %.1fms hides the %v stall", p90, stallTo-stallFrom)
	}
}

// The percentile rule: report the highest percentile with at least ten
// samples beyond it.
func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		q, got float64
	}{
		{1000, 0.99, 0.99},
		{5000, 0.99, 0.99},
		{500, 0.99, 0.98},
		{100, 0.99, 0.90},
		{100, 0.5, 0.5},
		{15, 0.99, 0.5},
	} {
		if s := supportedQuantile(c.n, c.q); abs(s-c.got) > 1e-9 {
			t.Errorf("supportedQuantile(%d, %v) = %v, want %v", c.n, c.q, s, c.got)
		}
	}
	for _, n := range []int{100, 1000, 2500} {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		x := quantile(v, 0.99)
		beyond := 0
		for _, y := range v {
			if y > x {
				beyond++
			}
		}
		if beyond < minTail {
			t.Errorf("n=%d: p99 reported as %v with %d samples beyond it", n, x, beyond)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark must honor.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// The metric lists in the code are the ones BENCHMARK.json records.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	check := func(kind string, want []metricDef, got []struct{ Name, Unit string }) {
		if len(want) != len(got) {
			t.Fatalf("%s: code has %d metrics, BENCHMARK.json %d", kind, len(want), len(got))
		}
		for i := range want {
			if want[i].name != got[i].Name || want[i].unit != got[i].Unit {
				t.Errorf("%s[%d]: code %v, BENCHMARK.json %v", kind, i, want[i], got[i])
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

// Short smoke: each workload, traced, passes its checks and prints every
// named metric with its unit; the result line carries the per-layer set.
func TestSmoke(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			if testing.Short() && strings.Contains(w.Name, "1m") {
				t.Skip("preloads a million rows")
			}
			var out bytes.Buffer
			work := t.TempDir()
			code := benchMain([]string{"--workload", w.Name, "--seed", "5", "--seconds", "3", "--trace", "1",
				"--work", work + "/work"}, &out)
			if code != 0 {
				t.Fatalf("exit %d:\n%s", code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			printed := map[string]string{}
			for _, l := range lines[:len(lines)-1] {
				if f := strings.Fields(l); len(f) == 3 && !strings.HasPrefix(l, "#") {
					printed[f[0]] = f[2]
				}
			}
			for _, m := range append(append([]struct{ Name, Unit string }{}, bj.EndToEnd...), bj.PerLayer...) {
				if u, ok := printed[m.Name]; !ok || u != m.Unit {
					t.Errorf("metric %s: printed with unit %q (present %v), want %q", m.Name, u, ok, m.Unit)
				}
			}
			var res struct {
				Correct           bool
				Attempted, Failed int64
				Metrics           map[string]metricVal
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result: %v", err)
			}
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(bj.PerLayer) {
				t.Errorf("result: correct=%v attempted=%d metrics=%d", res.Correct, res.Attempted, len(res.Metrics))
			}
		})
	}
}
