package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef is one named metric of the benchmark. The catalogue below is
// the single list both the program's output and ../BENCHMARK.json are
// checked against (bench_test.go), so a metric cannot be emitted without
// being declared, or declared without being emitted.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Moves names, for a per-layer metric, the end-to-end metric it is
	// expected to move and the workload it should move it on — written
	// down before measuring, so a later change that moves a layer number
	// can be checked against the prediction.
	Moves string
}

// endToEnd are the numbers a user of the harness sees. Every one is
// reported per workload; the bound is fixed here, not per run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "confirm_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "confirm_p90_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "allocs_per_tx", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "alloc_kb_per_tx", Unit: "KB", Better: "lower", Bound: 0.05},
}

const (
	macros   = "ycsb-quorum, smallbank-hyperledger, smallbank-sharded"
	ioBoth   = "iowrite-quorum-lsm, ioread-quorum-lsm"
	confirms = "confirm_p50_ms/confirm_p90_ms on " + macros
)

// perLayer are the single-layer numbers: stage latencies from the traced
// paced phase, ratios of the product's own counters from the untraced
// paced phase, and the outside-in layer probes.
var perLayer = append(append(append([]metricDef{}, stageDefs...), counterDefs...), probeDefs...)

// stageDefs come from the traced paced phase (Report.Stages).
var stageDefs = []metricDef{
	{Name: "stage.admit_p50_ms", Unit: "ms", Better: "lower", Moves: confirms},
	{Name: "stage.admit_p99_ms", Unit: "ms", Better: "lower", Moves: confirms},
	{Name: "stage.batch_p50_ms", Unit: "ms", Better: "lower", Moves: confirms},
	{Name: "stage.batch_p99_ms", Unit: "ms", Better: "lower", Moves: confirms},
	{Name: "stage.propose_p50_ms", Unit: "ms", Better: "lower", Moves: confirms},
	{Name: "stage.propose_p99_ms", Unit: "ms", Better: "lower", Moves: confirms},
	{Name: "stage.order_p50_ms", Unit: "ms", Better: "lower", Moves: confirms},
	{Name: "stage.order_p99_ms", Unit: "ms", Better: "lower", Moves: confirms},
	{Name: "stage.execute_p50_ms", Unit: "ms", Better: "lower", Moves: "confirm_p50_ms on cpuheavy-quorum only"},
	{Name: "stage.execute_p99_ms", Unit: "ms", Better: "lower", Moves: "confirm_p90_ms on cpuheavy-quorum only"},
	{Name: "stage.state_commit_p50_ms", Unit: "ms", Better: "lower", Moves: "confirm_p50_ms on " + ioBoth + " only"},
	{Name: "stage.state_commit_p99_ms", Unit: "ms", Better: "lower", Moves: "confirm_p90_ms on " + ioBoth + " only"},
	{Name: "stage.confirm_p50_ms", Unit: "ms", Better: "lower", Moves: confirms},
	{Name: "stage.confirm_p99_ms", Unit: "ms", Better: "lower", Moves: confirms},
	{Name: "stage.sum_vs_confirm_pct", Unit: "%", Better: "higher", Moves: "ledger check: sum of stage means over LatencyMean; reported, not gated"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: "runtime.cpu_us_per_tx of the traced phase over the untraced one, all workloads"},
}

// counterDefs come from the untraced paced phase (Report counters,
// snapshots).
var counterDefs = []metricDef{
	{Name: "driver.offered_ratio", Unit: "ratio", Better: "higher", Moves: "submitted/due, the driver's ticker shortfall; bounds driver.failed_share on all workloads"},
	{Name: "driver.failed_share", Unit: "ratio", Better: "lower", Moves: "1 - on_chain/due; 0 on a healthy run, so it cannot be an end-to-end metric; the host moves it by 0.1-4%"},
	{Name: "driver.peak_tps", Unit: "tx/s", Better: "higher", Moves: "capacity; demoted from end-to-end: spreads 5-20% between identical runs on a shared 2-vCPU host"},
	{Name: "driver.confirm_p99_ms", Unit: "ms", Better: "lower", Moves: "diagnostic tail behind confirm_p90_ms; swings 2x between identical runs"},
	{Name: "driver.queue_depth_p50", Unit: "count", Better: "lower", Moves: "confirm_p50_ms, all workloads (Little: depth = rate x latency)"},
	{Name: "simnet.msgs_per_tx", Unit: "count", Better: "lower", Moves: "driver.peak_tps, allocs_per_tx on smallbank-hyperledger; none on cpuheavy-quorum"},
	{Name: "simnet.bytes_per_tx", Unit: "B", Better: "lower", Moves: "alloc_kb_per_tx on smallbank-hyperledger"},
	{Name: "consensus.txs_per_batch", Unit: "count", Better: "higher", Moves: "driver.peak_tps up on the macros; confirm_p50_ms may rise"},
	{Name: "raft.read_redirect_ratio", Unit: "ratio", Better: "lower", Moves: "confirm_p50_ms on the raft workloads (a redirected poll pays RPC latency)"},
	{Name: "exec.us_per_tx", Unit: "us", Better: "lower", Moves: "driver.peak_tps on cpuheavy-quorum; <10% of cpu/nodes elsewhere"},
	{Name: "exec.parallel_reexec_ratio", Unit: "ratio", Better: "lower", Moves: "driver.peak_tps on workloads run with workers>1 (none today: n/a)"},
	{Name: "store.flat_hit_ratio", Unit: "ratio", Better: "higher", Moves: "driver.peak_tps up on ioread-quorum-lsm; watch alloc_kb_per_tx on iowrite-quorum-lsm"},
	{Name: "store.gets_per_tx", Unit: "count", Better: "lower", Moves: "driver.peak_tps, confirm_p50_ms on ioread-quorum-lsm"},
	{Name: "store.puts_per_tx", Unit: "count", Better: "lower", Moves: "driver.peak_tps, alloc_kb_per_tx on iowrite-quorum-lsm"},
	{Name: "store.wal_syncs_per_ktx", Unit: "count", Better: "lower", Moves: "confirm_p90_ms on " + ioBoth},
	{Name: "store.compact_bytes_per_tx", Unit: "B", Better: "lower", Moves: "driver.peak_tps on iowrite-quorum-lsm"},
	{Name: "store.bloom_skip_ratio", Unit: "ratio", Better: "higher", Moves: "driver.peak_tps on ioread-quorum-lsm"},
	{Name: "sharding.xshard_ratio", Unit: "ratio", Better: "lower", Moves: "property of the input on smallbank-sharded; 0 elsewhere"},
	{Name: "sharding.retries_per_xtx", Unit: "count", Better: "lower", Moves: "confirm_p90_ms on smallbank-sharded only"},
	{Name: "sharding.abort_share", Unit: "ratio", Better: "lower", Moves: "driver.failed_share on smallbank-sharded only"},
	{Name: "analytics.rows_per_tx", Unit: "count", Better: "lower", Moves: "allocs_per_tx, all workloads (commit-path indexing)"},
	{Name: "runtime.cpu_us_per_tx", Unit: "us", Better: "lower", Moves: "process CPU per committed tx, paced phase; demoted from end-to-end: spreads 8-20% on a shared 2-vCPU host"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower", Moves: "alloc_kb_per_tx on iowrite-quorum-lsm, smallbank-hyperledger"},
}

// probeDefs are the layer probes: the layer's exported functions called
// from outside, single goroutine, fixed op counts, median of 5 repeats,
// verified.
var probeDefs = []metricDef{
	{Name: "crypto.sign_us", Unit: "us", Better: "lower", Moves: "driver.peak_tps on " + macros},
	{Name: "crypto.verify_us", Unit: "us", Better: "lower", Moves: "driver.peak_tps on " + macros + " (largest on hyperledger)"},
	{Name: "types.block_encode_us", Unit: "us", Better: "lower", Moves: "driver.peak_tps, alloc_kb_per_tx on " + macros},
	{Name: "txpool.add_ns", Unit: "ns", Better: "lower", Moves: "driver.peak_tps on " + macros},
	{Name: "txpool.batch_ns_per_tx", Unit: "ns", Better: "lower", Moves: "driver.peak_tps on " + macros},
	{Name: "simnet.hop_us", Unit: "us", Better: "lower", Moves: confirms + " (modelled 200us + U[0,300us) plus harness cost)"},
	{Name: "evm.ycsb_write_us", Unit: "us", Better: "lower", Moves: "driver.peak_tps on ycsb-quorum"},
	{Name: "evm.sort1k_ms", Unit: "ms", Better: "lower", Moves: "driver.peak_tps on cpuheavy-quorum"},
	{Name: "chaincode.ycsb_write_us", Unit: "us", Better: "lower", Moves: "driver.peak_tps on smallbank-hyperledger only"},
	{Name: "chaincode.sort1k_ms", Unit: "ms", Better: "lower", Moves: "none of the six (native baseline for evm.sort1k_ms)"},
	{Name: "parallel.block128_w1_ms", Unit: "ms", Better: "lower", Moves: "driver.peak_tps on the quorum workloads when workers>1 (serial baseline)"},
	{Name: "parallel.block128_w4_ms", Unit: "ms", Better: "lower", Moves: "driver.peak_tps on the quorum workloads when workers>1"},
	{Name: "mpt.put_us", Unit: "us", Better: "lower", Moves: "driver.peak_tps on iowrite-quorum-lsm"},
	{Name: "mpt.get_us", Unit: "us", Better: "lower", Moves: "driver.peak_tps on ioread-quorum-lsm"},
	{Name: "mpt.commit1k_ms", Unit: "ms", Better: "lower", Moves: "driver.peak_tps, allocs_per_tx on iowrite-quorum-lsm"},
	{Name: "bmt.commit1k_ms", Unit: "ms", Better: "lower", Moves: "driver.peak_tps on smallbank-hyperledger only"},
	{Name: "kvstore.lsm_put_us", Unit: "us", Better: "lower", Moves: "driver.peak_tps on iowrite-quorum-lsm"},
	{Name: "kvstore.lsm_get_us", Unit: "us", Better: "lower", Moves: "driver.peak_tps on ioread-quorum-lsm"},
	{Name: "kvstore.lsm_scan1k_ms", Unit: "ms", Better: "lower", Moves: "setup_s on the lsm workloads (recovery-style scans)"},
	{Name: "kvstore.mem_get_us", Unit: "us", Better: "lower", Moves: "driver.peak_tps on the mem-store workloads"},
	{Name: "state.flat_hit_ns", Unit: "ns", Better: "lower", Moves: "driver.peak_tps on ioread-quorum-lsm, ycsb-quorum"},
	{Name: "analytics.apply_us_per_row", Unit: "us", Better: "lower", Moves: "driver.peak_tps, allocs_per_tx, all workloads"},
	{Name: "analytics.sum_us", Unit: "us", Better: "lower", Moves: "none of the six (htap is left out; probe only)"},
	{Name: "analytics.topk_us", Unit: "us", Better: "lower", Moves: "none of the six (htap is left out; probe only)"},
	{Name: "trace.stamp_off_ns", Unit: "ns", Better: "lower", Moves: "driver.peak_tps, all workloads (tracing off is the measured configuration)"},
	{Name: "trace.stamp_on_ns", Unit: "ns", Better: "lower", Moves: "trace.overhead_pct"},
	{Name: "metrics.observe_ns", Unit: "ns", Better: "lower", Moves: "driver.peak_tps, all workloads (driver latency histogram)"},
}

// value is one measured metric. NA marks a metric the platform under
// test does not expose (no LSM, no shards): the table prints "n/a", the
// machine-readable line carries 0.
type value struct {
	V  float64
	NA bool
	N  int // samples behind the number, where that is meaningful
}

func na() value { return value{NA: true} }

// ratio returns num/den, or n/a when the denominator is zero: a
// platform that never counted the base of a ratio does not expose it.
func ratio(num, den float64) value {
	if den == 0 {
		return na()
	}
	return value{V: num / den}
}

// median returns the middle of xs (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// frame is one full-length snapshot frame of a run: the offset from the
// run's start and the cumulative commit count at that moment.
type frame struct {
	At        time.Duration
	Committed uint64
}

// steadyRate is the peak-phase estimator: commits per second between
// the end of the `drop`-th frame and the end of the last one, so the
// ramp-up frames count neither as commits nor as time. It returns the
// number of frames the rate covers (0 when nothing is left).
func steadyRate(frames []frame, drop int) (tps float64, kept int) {
	if drop < 1 || drop >= len(frames) {
		return 0, 0
	}
	first, last := frames[drop-1], frames[len(frames)-1]
	if last.At <= first.At || last.Committed < first.Committed {
		return 0, 0
	}
	return float64(last.Committed-first.Committed) / (last.At - first.At).Seconds(), len(frames) - drop
}

// worseBy reports by which share of `first` the value `second` is worse
// (positive = worse), in the metric's own direction.
func worseBy(def metricDef, first, second float64) float64 {
	if first == 0 {
		return math.Inf(1)
	}
	d := (second - first) / math.Abs(first)
	if def.Better == "higher" {
		d = -d
	}
	return d
}

func formatValue(v value) string {
	if v.NA {
		return "n/a"
	}
	return fmt.Sprintf("%.4f", v.V)
}
