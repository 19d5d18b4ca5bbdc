package metrics

import "time"

// WindowStats summarizes the latencies observed in one window (the paper
// windows by second; compressed-time experiments use shorter windows).
type WindowStats struct {
	Start time.Time
	Count int
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
	Mean  time.Duration
}

// DefaultRetention is how far behind the newest observation a window's raw
// latency samples are kept before being summarized and evicted.
const DefaultRetention = 2 * time.Minute

// Recorder receives latency observations; ShardedRecorder implements it.
type Recorder interface {
	Record(at time.Time, latency time.Duration)
}

// SLAReport counts, per percentile, the number of windows whose percentile
// latency exceeded the threshold — Table 2's "number of SLA violations".
type SLAReport struct {
	Threshold     time.Duration
	Windows       int
	P50Violations int
	P95Violations int
	P99Violations int
}

// SLAViolations evaluates the windows against a latency threshold (the
// paper uses 500 ms, the largest delay unnoticeable to users).
func SLAViolations(windows []WindowStats, threshold time.Duration) SLAReport {
	rep := SLAReport{Threshold: threshold, Windows: len(windows)}
	for _, w := range windows {
		if w.P50 > threshold {
			rep.P50Violations++
		}
		if w.P95 > threshold {
			rep.P95Violations++
		}
		if w.P99 > threshold {
			rep.P99Violations++
		}
	}
	return rep
}

// PercentileSeries extracts one percentile (50, 95 or 99) across windows,
// in milliseconds — the input to the Fig 10 CDFs.
func PercentileSeries(windows []WindowStats, p int) []float64 {
	out := make([]float64, 0, len(windows))
	for _, w := range windows {
		var v time.Duration
		switch p {
		case 50:
			v = w.P50
		case 95:
			v = w.P95
		case 99:
			v = w.P99
		default:
			continue
		}
		out = append(out, float64(v)/float64(time.Millisecond))
	}
	return out
}
