// Package metrics provides the low-overhead counters, latency histograms and
// throughput timelines used by the benchmark harnesses to regenerate the
// paper's figures.
package metrics

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Reset sets the counter to zero.
func (c *Counter) Reset() { c.v.Store(0) }

// Histogram is a lock-free, mergeable latency histogram. Buckets are
// log-linear: every power-of-two octave [2^e, 2^(e+1)) ns is split into
// histSub equal sub-buckets, so a bucket is at most 1/histSub of its lower
// bound wide and a quantile, reported at the bucket midpoint, lies within
// 1/(2·histSub) ≈ 6% of the sample it stands for. Observe is one bits.Len64
// and a few atomic adds; Merge is bucket-wise addition — exactly associative
// and commutative, which is what lets per-node histograms fold into
// cluster-wide ones in any order. The zero value is ready to use; a
// Histogram must not be copied after first use.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
}

const (
	histSubBits = 3
	histSub     = 1 << histSubBits
	// Values below histSub get an exact bucket each (they fill what would be
	// octaves 0..histSubBits-1); octaves histSubBits..62 cover the rest of
	// the non-negative int64 range.
	histBuckets = (64 - histSubBits) * histSub
)

func bucketFor(ns int64) int {
	if ns < histSub {
		return int(ns)
	}
	shift := bits.Len64(uint64(ns)) - 1 - histSubBits
	return (shift+1)<<histSubBits | int(ns>>shift)&(histSub-1)
}

// bucketMid returns the midpoint of bucket i's value range.
func bucketMid(i int) int64 {
	if i < 2*histSub {
		return int64(i) // width-1 buckets
	}
	shift := i>>histSubBits - 1
	return int64(histSub|i&(histSub-1))<<shift + 1<<(shift-1)
}

// Observe records one duration (negative durations count as zero).
func (h *Histogram) Observe(d time.Duration) {
	ns := max(d.Nanoseconds(), 0)
	h.buckets[bucketFor(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	h.raiseMax(ns)
}

func (h *Histogram) raiseMax(ns int64) {
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observed durations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Max returns the largest observed duration.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Mean returns the mean observed duration.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile returns the q-quantile (0 < q <= 1) of the observations: the
// midpoint of the bucket the quantile lands in, clamped to the observed
// maximum.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	target := int64(q * float64(n))
	if target >= n { // q = 1, or nothing observed
		return h.Max()
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen > target {
			return min(time.Duration(bucketMid(i)), h.Max())
		}
	}
	return h.Max()
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	for i := range h.buckets {
		if n := other.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
	h.raiseMax(other.max.Load())
}

// Timeline records per-interval event counts so harnesses can plot
// throughput over time (Figures 10 and 15).
type Timeline struct {
	start    time.Time
	interval time.Duration
	mu       sync.Mutex
	buckets  []int64
}

// NewTimeline starts a timeline with the given bucketing interval.
func NewTimeline(interval time.Duration) *Timeline {
	return &Timeline{start: time.Now(), interval: interval}
}

// Tick records n events at the current time.
func (t *Timeline) Tick(n int64) {
	i := int(time.Since(t.start) / t.interval)
	t.mu.Lock()
	for len(t.buckets) <= i {
		t.buckets = append(t.buckets, 0)
	}
	t.buckets[i] += n
	t.mu.Unlock()
}

// Interval returns the bucketing interval.
func (t *Timeline) Interval() time.Duration { return t.interval }

// Series returns a copy of the per-interval counts.
func (t *Timeline) Series() []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int64, len(t.buckets))
	copy(out, t.buckets)
	return out
}

// Rates returns per-interval event rates in events/second.
func (t *Timeline) Rates() []float64 {
	s := t.Series()
	out := make([]float64, len(s))
	for i, v := range s {
		out[i] = float64(v) / t.interval.Seconds()
	}
	return out
}
