// Package metrics provides the measurement primitives behind the
// BLOCKBENCH stats collector: the counter-provider contract, latency
// histograms with percentile and CDF extraction, and wall-clock-bucketed
// time series for the commit-rate, queue-length and utilization figures.
//
// Histogram is the one latency histogram. It retains every raw sample,
// so percentiles and CDF points are exact: the gated confirm quantiles,
// Fig 17's latency distribution and the tracer's per-stage statistics
// all read nearest-rank order statistics of the same samples. Memory
// grows by 8 bytes per observation, which a finite run bounds.
package metrics

import (
	"math"
	"sort"
	"sync"
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

// Histogram accumulates duration samples and reports order statistics.
// It retains raw samples (experiments are bounded), which keeps
// percentiles exact rather than approximate. All methods are safe for
// concurrent use.
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
	return h.rankLocked(q)
}

// rankLocked returns the nearest-rank q-quantile: the smallest sample
// with at least a q fraction of all samples at or below it. The caller
// holds mu and has checked for samples.
func (h *Histogram) rankLocked(q float64) float64 {
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
// producing the latency-distribution curves of Fig 17. Each value is
// Quantile of its fraction, so the curve and the reported percentiles
// agree.
func (h *Histogram) CDF(points int) (values, fractions []float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 || points <= 0 {
		return nil, nil
	}
	values = make([]float64, points)
	fractions = make([]float64, points)
	for i := 0; i < points; i++ {
		fractions[i] = float64(i+1) / float64(points)
		values[i] = h.rankLocked(fractions[i])
	}
	return values, fractions
}

// Reset drops every sample, releasing their memory.
func (h *Histogram) Reset() {
	h.mu.Lock()
	h.samples, h.sorted = nil, false
	h.mu.Unlock()
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
