package main

import (
	"sync"
	"time"

	"pstore/internal/server"
)

// outcome classifies one reply. Every reply gets exactly one class.
type outcome uint8

const (
	outOK    outcome = iota // committed or read
	outAbort                // business abort (cart not found, no stock): a result
	outFail                 // transport error, timeout, shed or refusal
)

// sample is one request as the generator saw it. Times are offsets from the
// run's epoch; latency runs from due, not from sent, so a stall charges the
// wait to every request queued behind it.
type sample struct {
	due, sent, done time.Duration
	out             outcome
}

func (s sample) latency() time.Duration { return s.done - s.due }
func (s sample) late() time.Duration    { return s.sent - s.due }

// openLoop issues request i at epoch+dues[i] whether or not earlier
// requests have completed, then waits for every reply. dues must be
// non-decreasing. do performs request i and classifies its reply; it runs on
// its own goroutine, so a slow reply never delays the schedule.
func openLoop(epoch time.Time, dues []time.Duration, do func(i int) outcome) []sample {
	out := make([]sample, len(dues))
	var wg sync.WaitGroup
	for i := 0; i < len(dues); {
		now := time.Since(epoch)
		if wait := dues[i] - now; wait > 0 {
			time.Sleep(wait)
			now = time.Since(epoch)
		}
		for ; i < len(dues) && dues[i] <= now; i++ {
			wg.Add(1)
			go func(i int, sent time.Duration) {
				defer wg.Done()
				o := do(i)
				out[i] = sample{due: dues[i], sent: sent, done: time.Since(epoch), out: o}
			}(i, now)
		}
	}
	wg.Wait()
	return out
}

// uniformDues spaces n requests evenly at rate per second from start.
func uniformDues(start time.Duration, rate float64, n int) []time.Duration {
	dues := make([]time.Duration, n)
	step := float64(time.Second) / rate
	for i := range dues {
		dues[i] = start + time.Duration(float64(i)*step)
	}
	return dues
}

// op is one generated B2W transaction.
type op struct {
	proc, key  string
	args       map[string]string
	read       bool
	viaPrimary bool // send a read through Call, to the partition's primary
}

// issue sends o over c and classifies the reply. Read-only procedures go
// through Read (session-consistent, may be served by a standby); the rest
// through Call.
func issue(c *server.Client, o *op) (outcome, error) {
	var res *server.CallResult
	var err error
	if o.read && !o.viaPrimary {
		res, err = c.Read(o.proc, o.key, o.args)
	} else {
		res, err = c.Call(o.proc, o.key, o.args)
	}
	switch {
	case err == nil:
		return outOK, nil
	case res != nil && res.Abort:
		return outAbort, nil
	default:
		return outFail, err
	}
}
