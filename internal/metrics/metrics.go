// Package metrics provides the measurement primitives behind the
// BLOCKBENCH stats collector: counters, latency histograms with
// percentile and CDF extraction, and wall-clock-bucketed time series for
// the commit-rate, queue-length and utilization figures.
//
// Two histogram types coexist deliberately:
//
//   - Histogram retains every raw sample. Percentiles and CDF points
//     are exact, which the paper-figure reports need (Fig 17's latency
//     distribution), but memory grows with the sample count — use it
//     only where the run bounds the samples (one latency observation
//     per committed transaction of a finite run).
//   - FixedHistogram buckets samples into a fixed log-spaced layout:
//     memory is constant no matter how long the run, observation is a
//     few atomic adds (safe from any goroutine without locking), and
//     two histograms merge bucket-wise. Quantiles are approximate to
//     within one bucket (~26% width). Long-running or hot-path stats —
//     the per-stage pipeline latencies of internal/trace, anything
//     surfaced on a live /metrics endpoint — belong here.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// CounterProvider is implemented by consensus and execution engines that
// expose named monotonic counters to the driver's metric stream. Keys
// are namespaced "engine.metric" (e.g. "pow.hashes", "raft.elections",
// "exec.time_ns"); values must only grow, so per-run deltas and per-node
// sums are meaningful. The platform cluster aggregates providers across
// nodes without knowing concrete engine types — implementing this
// interface is all a new backend needs for its counters to appear in
// Report.Counters and every Snapshot.
//
// Keys for which GaugeKey reports true are exempt from the only-grow
// contract's delta treatment: they carry configuration levels, and the
// driver passes their summed value through unchanged instead of
// differencing it across the run.
type CounterProvider interface {
	Counters() map[string]uint64
}

// GaugeKey reports whether a counter key carries an absolute level (a
// configuration constant like a pool size) rather than a monotonic
// total. The driver's per-run delta would cancel such a key to zero,
// so it keeps the raw value instead. The convention is by suffix:
// ".workers" names configured pool sizes (summed across nodes by the
// cluster aggregation, so a 3-node cluster at workers=4 reports 12).
func GaugeKey(key string) bool {
	const suffix = ".workers"
	return len(key) >= len(suffix) && key[len(key)-len(suffix):] == suffix
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram accumulates duration samples and reports order statistics.
// It retains raw samples (experiments are bounded), which keeps
// percentiles exact rather than approximate.
type Histogram struct {
	mu      sync.Mutex
	samples []float64 // seconds
	sorted  bool
}

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	h.samples = append(h.samples, d.Seconds())
	h.sorted = false
	h.mu.Unlock()
}

// Count returns the number of samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Mean returns the average sample in seconds (0 if empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range h.samples {
		sum += s
	}
	return sum / float64(len(h.samples))
}

func (h *Histogram) sortLocked() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// Quantile returns the q-th (0..1) sample in seconds (0 if empty).
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	h.sortLocked()
	idx := int(math.Ceil(q*float64(len(h.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.samples) {
		idx = len(h.samples) - 1
	}
	return h.samples[idx]
}

// CDF returns (value, cumulative fraction) pairs at the given points,
// producing the latency-distribution curves of Fig 17.
func (h *Histogram) CDF(points int) (values, fractions []float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 || points <= 0 {
		return nil, nil
	}
	h.sortLocked()
	values = make([]float64, points)
	fractions = make([]float64, points)
	for i := 0; i < points; i++ {
		f := float64(i+1) / float64(points)
		idx := int(f*float64(len(h.samples))) - 1
		if idx < 0 {
			idx = 0
		}
		values[i] = h.samples[idx]
		fractions[i] = f
	}
	return values, fractions
}

// FixedHistogram bucket layout: bucket 0 catches everything at or
// below fixedMinSeconds, then fixedPerDecade log-spaced buckets per
// decade across fixedDecades decades, and a final overflow bucket.
// With 10 buckets per decade the bucket width ratio is 10^0.1 ≈ 1.26,
// so quantiles are exact to within ~26% — plenty for p50/p99 stage
// attribution, at 82 words of memory per histogram.
const (
	fixedMinSeconds  = 1e-6
	fixedPerDecade   = 10
	fixedDecades     = 8 // 1µs .. 100s
	fixedBucketCount = fixedPerDecade*fixedDecades + 2
)

// fixedBounds[i] is the inclusive upper bound of bucket i in seconds;
// the last bucket is unbounded.
var fixedBounds = func() [fixedBucketCount]float64 {
	var b [fixedBucketCount]float64
	for i := range b {
		b[i] = fixedMinSeconds * math.Pow(10, float64(i)/fixedPerDecade)
	}
	b[fixedBucketCount-1] = math.Inf(1)
	return b
}()

// fixedBucketOf maps a sample in seconds to its bucket index. The log
// gives the neighborhood; the comparisons absorb floating-point error
// at the boundaries.
func fixedBucketOf(s float64) int {
	if s <= fixedMinSeconds {
		return 0
	}
	i := int(math.Log10(s/fixedMinSeconds) * fixedPerDecade)
	if i < 0 {
		i = 0
	}
	if i > fixedBucketCount-1 {
		i = fixedBucketCount - 1
	}
	for i < fixedBucketCount-1 && s > fixedBounds[i] {
		i++
	}
	for i > 0 && s <= fixedBounds[i-1] {
		i--
	}
	return i
}

// FixedHistogram is a bounded-memory latency histogram over fixed
// log-spaced buckets (see the package comment for when to prefer it
// over Histogram). All methods are safe for concurrent use; Observe is
// lock-free.
type FixedHistogram struct {
	counts   [fixedBucketCount]atomic.Uint64
	total    atomic.Uint64
	sumNanos atomic.Int64
}

// Observe records one duration sample.
func (h *FixedHistogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[fixedBucketOf(d.Seconds())].Add(1)
	h.total.Add(1)
	h.sumNanos.Add(int64(d))
}

// Count returns the number of samples.
func (h *FixedHistogram) Count() uint64 { return h.total.Load() }

// Sum returns the total of all samples in seconds.
func (h *FixedHistogram) Sum() float64 {
	return float64(h.sumNanos.Load()) / 1e9
}

// Mean returns the average sample in seconds (0 if empty).
func (h *FixedHistogram) Mean() float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile returns an estimate of the q-th (0..1) sample in seconds,
// linearly interpolated within the containing bucket (0 if empty).
func (h *FixedHistogram) Quantile(q float64) float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(n)
	var cum float64
	for i := 0; i < fixedBucketCount; i++ {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo := 0.0
			if i > 0 {
				lo = fixedBounds[i-1]
			}
			hi := fixedBounds[i]
			if math.IsInf(hi, 1) {
				return lo // overflow bucket: report its floor
			}
			frac := (rank - cum) / c
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return fixedBounds[fixedBucketCount-2]
}

// Reset zeroes the histogram. Not atomic with respect to concurrent
// Observe calls; callers reset between runs, not during them.
func (h *FixedHistogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.total.Store(0)
	h.sumNanos.Store(0)
}

// Buckets returns the histogram's upper bounds (seconds; the last is
// +Inf) and the cumulative count at or below each bound — the shape a
// Prometheus histogram exposition needs.
func (h *FixedHistogram) Buckets() (bounds []float64, cumulative []uint64) {
	bounds = make([]float64, fixedBucketCount)
	cumulative = make([]uint64, fixedBucketCount)
	var cum uint64
	for i := 0; i < fixedBucketCount; i++ {
		cum += h.counts[i].Load()
		bounds[i] = fixedBounds[i]
		cumulative[i] = cum
	}
	return bounds, cumulative
}

// TimeSeries buckets values by elapsed wall-clock seconds from a start
// time, producing the over-time figures (committed tx, queue length,
// utilization).
type TimeSeries struct {
	mu      sync.Mutex
	start   time.Time
	bucket  time.Duration
	values  []float64
	counts  []int
	average bool // report bucket mean rather than sum
}

// NewTimeSeries creates a series with the given bucket width. If average
// is true, Sample values are averaged per bucket; otherwise summed.
func NewTimeSeries(start time.Time, bucket time.Duration, average bool) *TimeSeries {
	return &TimeSeries{start: start, bucket: bucket, average: average}
}

// Sample records v at time ts.
func (s *TimeSeries) Sample(ts time.Time, v float64) {
	idx := int(ts.Sub(s.start) / s.bucket)
	if idx < 0 {
		return
	}
	s.mu.Lock()
	for len(s.values) <= idx {
		s.values = append(s.values, 0)
		s.counts = append(s.counts, 0)
	}
	s.values[idx] += v
	s.counts[idx]++
	s.mu.Unlock()
}

// Values returns one value per bucket.
func (s *TimeSeries) Values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, len(s.values))
	for i, v := range s.values {
		if s.average && s.counts[i] > 0 {
			out[i] = v / float64(s.counts[i])
		} else {
			out[i] = v
		}
	}
	return out
}
