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
	var reset Histogram
	for i := 1; i <= 10; i++ {
		reset.Observe(time.Duration(i) * time.Millisecond)
	}
	reset.Quantile(0.5) // leave it sorted
	reset.Reset()
	for name, h := range map[string]*Histogram{"new": {}, "reset": &reset} {
		if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Quantile(0.99) != 0 {
			t.Fatalf("%s histogram should report zeros", name)
		}
		v, f := h.CDF(10)
		if v != nil || f != nil {
			t.Fatalf("%s histogram's CDF should be nil", name)
		}
		h.Observe(3 * time.Millisecond)
		h.Observe(time.Millisecond)
		if h.Count() != 2 || h.Quantile(0.5) != 0.001 || h.Quantile(1) != 0.003 {
			t.Fatalf("%s histogram after two samples: count %d, p50 %v, max %v",
				name, h.Count(), h.Quantile(0.5), h.Quantile(1))
		}
	}
}

// The name is kept from the bucketed histogram that Histogram replaced;
// the same samples now check the exact sum, the CDF's tail and Reset.
func TestFixedHistogramSumAndReset(t *testing.T) {
	var a Histogram
	for i := 1; i <= 100; i++ {
		a.Observe(time.Duration(i) * time.Millisecond)
		a.Observe(time.Duration(i) * time.Microsecond)
	}
	if a.Count() != 200 {
		t.Fatalf("count = %d", a.Count())
	}
	wantSum := 5.05 + 0.00505
	if got := a.Mean() * float64(a.Count()); math.Abs(got-wantSum) > 1e-12 {
		t.Fatalf("sum = %v, want %v", got, wantSum)
	}
	v, f := a.CDF(4)
	if f[len(f)-1] != 1 || v[len(v)-1] != 0.1 {
		t.Fatalf("CDF tail = (%v, %v), want (0.1, 1)", v[len(v)-1], f[len(f)-1])
	}
	a.Reset()
	if a.Count() != 0 || a.Mean() != 0 || a.Quantile(0.5) != 0 {
		t.Fatal("reset did not clear histogram")
	}
}

func TestHistogramCDFMonotonic(t *testing.T) {
	mod37 := make([]time.Duration, 500)
	for i := range mod37 {
		mod37[i] = time.Duration(i%37) * time.Millisecond
	}
	for _, tc := range []struct {
		name    string
		samples []time.Duration
		points  int
	}{
		{"mod37", mod37, 20},
		// A median point between two samples: a third of the samples
		// are at or below 1 s, so the 0.5 point is 2 s, as Quantile says.
		{"three", []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}, 2},
	} {
		var h Histogram
		for _, d := range tc.samples {
			h.Observe(d)
		}
		values, fractions := h.CDF(tc.points)
		if len(values) != tc.points || len(fractions) != tc.points {
			t.Fatalf("%s: lengths: %d, %d", tc.name, len(values), len(fractions))
		}
		for i := range values {
			if i > 0 && values[i] < values[i-1] {
				t.Fatalf("%s: CDF values not monotone", tc.name)
			}
			if i > 0 && fractions[i] <= fractions[i-1] {
				t.Fatalf("%s: CDF fractions not monotone", tc.name)
			}
			if q := h.Quantile(fractions[i]); values[i] != q {
				t.Fatalf("%s: CDF point (%v, %v) disagrees with Quantile %v",
					tc.name, values[i], fractions[i], q)
			}
			atOrBelow := 0
			for _, d := range tc.samples {
				if d.Seconds() <= values[i] {
					atOrBelow++
				}
			}
			if got := float64(atOrBelow) / float64(len(tc.samples)); got < fractions[i] {
				t.Fatalf("%s: CDF point (%v, %v) but only %v of samples are at or below it",
					tc.name, values[i], fractions[i], got)
			}
		}
		if fractions[tc.points-1] != 1.0 {
			t.Fatalf("%s: last fraction = %v", tc.name, fractions[tc.points-1])
		}
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

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
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
	// Every sample survived: the order statistics are exactly 0..7999 µs.
	if got := h.Quantile(1); got != 7999e-6 {
		t.Fatalf("max = %v", got)
	}
	if got := h.Mean(); math.Abs(got-3999.5e-6) > 1e-12 {
		t.Fatalf("mean = %v", got)
	}
}
