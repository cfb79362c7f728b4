package metrics

import (
	"math"
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
	if c.Value() != 8000 {
		t.Fatalf("counter = %d", c.Value())
	}
	c.Add(5)
	if c.Value() != 8005 {
		t.Fatal("Add failed")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Quantile(0.5); got < 0.049 || got > 0.051 {
		t.Fatalf("p50 = %v", got)
	}
	if got := h.Quantile(0.99); got < 0.098 || got > 0.100 {
		t.Fatalf("p99 = %v", got)
	}
	if got := h.Quantile(1.0); got != 0.1 {
		t.Fatalf("p100 = %v", got)
	}
	mean := h.Mean()
	if mean < 0.050 || mean > 0.051 {
		t.Fatalf("mean = %v", mean)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	v, f := h.CDF(10)
	if v != nil || f != nil {
		t.Fatal("empty CDF should be nil")
	}
}

func TestHistogramCDFMonotonic(t *testing.T) {
	var h Histogram
	for i := 0; i < 500; i++ {
		h.Observe(time.Duration(i%37) * time.Millisecond)
	}
	values, fractions := h.CDF(20)
	if len(values) != 20 || len(fractions) != 20 {
		t.Fatalf("lengths: %d, %d", len(values), len(fractions))
	}
	for i := 1; i < 20; i++ {
		if values[i] < values[i-1] {
			t.Fatal("CDF values not monotone")
		}
		if fractions[i] <= fractions[i-1] {
			t.Fatal("CDF fractions not monotone")
		}
	}
	if fractions[19] != 1.0 {
		t.Fatalf("last fraction = %v", fractions[19])
	}
}

func TestTimeSeriesSumAndAverage(t *testing.T) {
	start := time.Unix(1000, 0)
	sum := NewTimeSeries(start, time.Second, false)
	avg := NewTimeSeries(start, time.Second, true)
	for i := 0; i < 4; i++ {
		ts := start.Add(time.Duration(i) * 250 * time.Millisecond)
		sum.Sample(ts, 2)
		avg.Sample(ts, float64(i))
	}
	sum.Sample(start.Add(1500*time.Millisecond), 7)
	if got := sum.Values(); got[0] != 8 || got[1] != 7 {
		t.Fatalf("sum series = %v", got)
	}
	if got := avg.Values(); got[0] != 1.5 {
		t.Fatalf("avg series = %v", got)
	}
	// Samples before start are ignored, not panicking.
	sum.Sample(start.Add(-time.Second), 100)
	if got := sum.Values(); got[0] != 8 {
		t.Fatal("negative-time sample corrupted series")
	}
}

func TestFixedHistogramObserveAndQuantile(t *testing.T) {
	var h FixedHistogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty FixedHistogram should report zeros")
	}
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 500.5; got < want*0.999 || got > want*1.001 {
		t.Fatalf("sum = %v, want ~%v", got, want)
	}
	// Bucket width is 10^0.1 ≈ 1.26; estimates must land within ±30%.
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 0.500}, {0.99, 0.990}, {0.10, 0.100},
	} {
		got := h.Quantile(tc.q)
		if got < tc.want*0.7 || got > tc.want*1.3 {
			t.Fatalf("q=%v estimate %v, want within 30%% of %v", tc.q, got, tc.want)
		}
	}
	// Quantile must be monotone in q.
	prev := -1.0
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestFixedHistogramExtremes(t *testing.T) {
	var h FixedHistogram
	h.Observe(-time.Second)       // clamps to 0 → bucket 0
	h.Observe(0)                  // bucket 0
	h.Observe(time.Nanosecond)    // below min → bucket 0
	h.Observe(1000 * time.Second) // beyond max decade → overflow bucket
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	bounds, cum := h.Buckets()
	if cum[0] != 3 {
		t.Fatalf("underflow bucket holds %d, want 3", cum[0])
	}
	last := len(cum) - 1
	if cum[last] != 4 || cum[last-1] != 3 {
		t.Fatalf("overflow bucket miscounted: %v", cum[last-2:])
	}
	if !math.IsInf(bounds[last], 1) {
		t.Fatal("last bound must be +Inf")
	}
	// An overflow-dominated quantile reports the finite floor, not Inf.
	if v := h.Quantile(1.0); math.IsInf(v, 1) || v <= 0 {
		t.Fatalf("overflow quantile = %v", v)
	}
}

func TestFixedHistogramSumAndReset(t *testing.T) {
	var a FixedHistogram
	for i := 1; i <= 100; i++ {
		a.Observe(time.Duration(i) * time.Millisecond)
		a.Observe(time.Duration(i) * time.Microsecond)
	}
	if a.Count() != 200 {
		t.Fatalf("count = %d", a.Count())
	}
	wantSum := 5.05 + 0.00505
	if got := a.Sum(); got < wantSum*0.999 || got > wantSum*1.001 {
		t.Fatalf("sum = %v, want ~%v", got, wantSum)
	}
	_, cum := a.Buckets()
	if cum[len(cum)-1] != 200 {
		t.Fatal("cumulative buckets disagree with count")
	}
	a.Reset()
	if a.Count() != 0 || a.Sum() != 0 || a.Quantile(0.5) != 0 {
		t.Fatal("reset did not clear histogram")
	}
}

func TestFixedBucketBoundaries(t *testing.T) {
	// Every bound must land in its own bucket (inclusive upper bound),
	// and a hair above it in the next.
	for i := 0; i < fixedBucketCount-1; i++ {
		b := fixedBounds[i]
		if got := fixedBucketOf(b); got != i && !(i == 0 && got == 0) {
			t.Fatalf("bound %v landed in bucket %d, want %d", b, got, i)
		}
		if got := fixedBucketOf(b * 1.0001); got != i+1 {
			t.Fatalf("just above bound %v landed in bucket %d, want %d", b, got, i+1)
		}
	}
}

func TestFixedHistogramConcurrent(t *testing.T) {
	var h FixedHistogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(g*1000+i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d", h.Count())
	}
	_, cum := h.Buckets()
	if cum[len(cum)-1] != 8000 {
		t.Fatal("bucket counts lost samples")
	}
}
