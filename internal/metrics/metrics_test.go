package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	c.Reset()
	if c.Load() != 0 {
		t.Fatal("reset failed")
	}
}

// TestHistogramQuantiles is the accuracy property: over log-uniform samples
// spanning 1 ns–10 s, p50 and p99 land within 10% of the exact sample
// quantile, and the summary fields are exact.
func TestHistogramQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	samples := make([]int64, 20000)
	var sum int64
	for i := range samples {
		samples[i] = int64(math.Exp(rng.Float64() * math.Log(10e9)))
		sum += samples[i]
		h.Observe(time.Duration(samples[i]))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.50, 0.99} {
		exact := float64(samples[int(q*float64(len(samples)))])
		got := float64(h.Quantile(q))
		if math.Abs(got-exact) > 0.10*exact {
			t.Errorf("q%.2f = %v, exact sample quantile %v: off by more than 10%%", q, time.Duration(got), time.Duration(exact))
		}
	}
	last := samples[len(samples)-1]
	if h.Count() != int64(len(samples)) || int64(h.Sum()) != sum || int64(h.Max()) != last {
		t.Fatalf("count=%d sum=%d max=%d, want %d %d %d", h.Count(), h.Sum(), h.Max(), len(samples), sum, last)
	}
	if h.Quantile(1.0) != h.Max() || h.Mean() != time.Duration(sum/int64(len(samples))) {
		t.Fatalf("q1.0=%v max=%v mean=%v", h.Quantile(1.0), h.Max(), h.Mean())
	}
}

// TestHistogramBuckets: every value maps into the bucket whose midpoint is
// within 1/(2·histSub) of it, bucket indexes grow with the value, and the
// largest int64 still has a bucket.
func TestHistogramBuckets(t *testing.T) {
	prev := -1
	for _, ns := range []int64{0, 1, 7, 8, 15, 16, 18, 1000, 1 << 20, 1<<20 + 1<<17, 1 << 40, math.MaxInt64} {
		i := bucketFor(ns)
		if i <= prev || i >= histBuckets {
			t.Fatalf("bucketFor(%d) = %d after %d (of %d)", ns, i, prev, histBuckets)
		}
		prev = i
		if mid := bucketMid(i); math.Abs(float64(mid-ns)) > float64(ns)/(2*histSub) {
			t.Fatalf("bucketMid(bucketFor(%d)) = %d: further than 1/%d away", ns, mid, 2*histSub)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

// TestHistogramClampsToMax: a quantile never exceeds the observed maximum,
// and negative durations count as zero.
func TestHistogramClampsToMax(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(time.Millisecond)
	}
	h.Observe(100 * time.Millisecond)
	h.Observe(-time.Second)
	if p50 := h.Quantile(0.5); p50 < 900*time.Microsecond || p50 > 1100*time.Microsecond {
		t.Fatalf("p50 = %v, want ~1ms", p50)
	}
	if h.Max() != 100*time.Millisecond || h.Quantile(1.0) > h.Max() {
		t.Fatalf("max = %v, q1.0 = %v", h.Max(), h.Quantile(1.0))
	}
	var one Histogram
	one.Observe(1025 * time.Nanosecond) // bucket [1024, 1152): midpoint above the sample
	if one.Quantile(0.5) != 1025 {
		t.Fatalf("single-sample p50 = %v, want the max 1025ns", one.Quantile(0.5))
	}
}

// TestHistogramMerge checks the property the cluster-wide stage merge relies
// on: histograms merge associatively and commutatively, field for field.
func TestHistogramMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	hs := make([]*Histogram, 3)
	for i := range hs {
		hs[i] = &Histogram{}
		for j := 0; j < 500; j++ {
			hs[i].Observe(time.Duration(rng.Int63n(int64(200 * time.Millisecond))))
		}
	}
	merged := func(parts ...*Histogram) *Histogram {
		var h Histogram
		for _, p := range parts {
			h.Merge(p)
		}
		return &h
	}
	a, b, c := hs[0], hs[1], hs[2]
	left := merged(merged(a, b), c)
	right := merged(a, merged(b, c))
	if !reflect.DeepEqual(left, right) {
		t.Fatalf("merge not associative:\n left=%+v\nright=%+v", left, right)
	}
	if !reflect.DeepEqual(merged(a, b), merged(b, a)) {
		t.Fatalf("merge not commutative")
	}
	if left.Count() != a.Count()+b.Count()+c.Count() {
		t.Fatalf("merged count %d want %d", left.Count(), a.Count()+b.Count()+c.Count())
	}
	if want := max(a.Max(), b.Max(), c.Max()); left.Max() != want {
		t.Fatalf("merged max %v want %v", left.Max(), want)
	}
}

// TestHistogramConcurrent hammers Observe from several goroutines while a
// reader takes quantiles and merges (run under -race); nothing is lost.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= per; i++ {
				h.Observe(time.Duration(g*per+i) * time.Microsecond)
			}
		}(g)
	}
	for i := 0; i < 100; i++ {
		var snap Histogram
		snap.Merge(&h)
		if snap.Quantile(0.99) > snap.Max() {
			t.Error("quantile above max in a concurrent snapshot")
		}
	}
	wg.Wait()
	if h.Count() != goroutines*per || h.Max() != goroutines*per*time.Microsecond {
		t.Fatalf("count=%d max=%v", h.Count(), h.Max())
	}
}

func TestTimeline(t *testing.T) {
	tl := NewTimeline(10 * time.Millisecond)
	tl.Tick(5)
	time.Sleep(25 * time.Millisecond)
	tl.Tick(3)
	s := tl.Series()
	if len(s) < 3 {
		t.Fatalf("series len = %d, want >= 3", len(s))
	}
	if s[0] != 5 {
		t.Fatalf("bucket 0 = %d, want 5", s[0])
	}
	var total int64
	for _, v := range s {
		total += v
	}
	if total != 8 {
		t.Fatalf("total = %d, want 8", total)
	}
	rates := tl.Rates()
	if rates[0] != 500 {
		t.Fatalf("rate 0 = %f, want 500/s", rates[0])
	}
}
