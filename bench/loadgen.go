package main

// The load generator: a closed loop (each session sends its next transaction
// when the previous one returns) and an open loop (arrivals due at
// start + i/rate, timed from the due time so queueing behind a stall is
// counted). Both run exactly one goroutine per session.

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// attemptFunc runs one transaction attempt (retries included) on session
// sess and reports how many retries it used.
type attemptFunc func(sess int) (retries int, err error)

// phaseResult is what one load phase observed. Latencies are in
// milliseconds, one per committed attempt.
type phaseResult struct {
	Elapsed   time.Duration
	Attempted int
	Failed    int
	Commits   int
	Retries   int
	LatMS     []float64
	LateMS    []float64 // open loop: how late each attempt started after it was due
	FirstErr  error
	// PerSession is each session's commits, in session order (one phase).
	PerSession []int
}

func (r *phaseResult) merge(o phaseResult) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Commits += o.Commits
	r.Retries += o.Retries
	r.LatMS = append(r.LatMS, o.LatMS...)
	r.LateMS = append(r.LateMS, o.LateMS...)
	if r.FirstErr == nil {
		r.FirstErr = o.FirstErr
	}
}

func (r *phaseResult) record(start, end time.Time, retries int, err error) {
	r.Attempted++
	r.Retries += retries
	if err != nil {
		r.Failed++
		if r.FirstErr == nil {
			r.FirstErr = err
		}
		return
	}
	r.Commits++
	r.LatMS = append(r.LatMS, ms(end.Sub(start)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// runSessions runs body once per session, concurrently, and folds the
// per-session results; Elapsed spans the slowest session.
func runSessions(n int, body func(sess int, r *phaseResult)) phaseResult {
	parts := make([]phaseResult, n)
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			body(s, &parts[s])
		}(s)
	}
	wg.Wait()
	var total phaseResult
	for _, p := range parts {
		total.merge(p)
		total.PerSession = append(total.PerSession, p.Commits)
	}
	total.Elapsed = time.Since(start)
	return total
}

// closedLoop keeps n sessions busy for dur, or until dead closes.
func closedLoop(n int, dur time.Duration, dead <-chan struct{}, attempt attemptFunc) phaseResult {
	deadline := time.Now().Add(dur)
	return runSessions(n, func(s int, r *phaseResult) {
		for !isClosed(dead) {
			t0 := time.Now()
			if !t0.Before(deadline) {
				return
			}
			retries, err := attempt(s)
			r.record(t0, time.Now(), retries, err)
		}
	})
}

// openLoop offers rate arrivals per second for dur. Arrival i is due at
// start + i/rate and goes to whichever session frees up first; its latency
// runs from the due time. If dead closes, every arrival not yet sent counts
// as a failed attempt.
func openLoop(n int, rate float64, dur time.Duration, dead <-chan struct{}, attempt attemptFunc) phaseResult {
	total := int64(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	start := time.Now()
	return runSessions(n, func(s int, r *phaseResult) {
		for {
			i := next.Add(1) - 1
			if i >= total {
				return
			}
			due := start.Add(time.Duration(i) * interval)
			if wait := time.Until(due); wait > 0 {
				select {
				case <-time.After(wait):
				case <-dead:
				}
			}
			if isClosed(dead) {
				r.Attempted++
				r.Failed++
				continue
			}
			sent := time.Now()
			retries, err := attempt(s)
			r.record(due, time.Now(), retries, err)
			r.LateMS = append(r.LateMS, ms(sent.Sub(due)))
		}
	})
}

// quantile returns the nearest-rank q-quantile of sorted (ascending) xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// beyond is how many of n samples lie strictly above the nearest-rank
// q-quantile: a percentile is only reported as supported with ten or more.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(q*float64(n)+0.999999)
}

// latencySummary is a timing reported the way the metrics guide asks: the
// median, the tail percentile, and how many samples back each.
type latencySummary struct {
	Samples   int     `json:"samples"`
	P50       float64 `json:"p50"`
	P99       float64 `json:"p99"`
	BeyondP99 int     `json:"beyond_p99"`
}

func summarize(xs []float64) latencySummary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return latencySummary{
		Samples:   len(s),
		P50:       quantile(s, 0.50),
		P99:       quantile(s, 0.99),
		BeyondP99: beyond(len(s), 0.99),
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}
