// Package report defines the machine-readable outputs of one benchmark
// run: the final Report, the per-bucket Snapshot stream the driver's run
// handle emits while the run is live, and the JSONL Sink that persists
// both. It is deliberately free of platform types — resource counters
// arrive as a generic name→value map, so every platform preset's
// counters flow through without this package (or the driver) knowing
// its engines.
package report

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Well-known counter keys. Engines expose their counters through
// metrics.CounterProvider under namespaced "engine.metric" names; these
// constants cover the keys the framework itself reads back. Backends may
// add arbitrary keys of their own.
const (
	// CounterPowHashes is the PoW engine's hash attempts (CPU proxy).
	CounterPowHashes = "pow.hashes"
	// CounterExecTimeNs is cumulative nanoseconds inside contract
	// execution (EVM or native chaincode).
	CounterExecTimeNs = "exec.time_ns"
	// CounterElections is the number of Raft leader elections started.
	CounterElections = "raft.elections"
	// CounterXShardFastpath counts single-shard transactions routed on
	// the sharded platform's fast path (2PC bypassed entirely).
	CounterXShardFastpath = "xshard.fastpath"
	// CounterXShardTxs counts cross-shard transactions coordinated
	// through two-phase commit.
	CounterXShardTxs = "xshard.txs"
	// CounterXShardCommits counts cross-shard transactions that
	// committed; with CounterXShardAborts it accounts for every
	// resolved cross-shard transaction exactly once.
	CounterXShardCommits = "xshard.commits"
	// CounterXShardAborts counts cross-shard transactions abandoned
	// after exhausting their abort-retry budget.
	CounterXShardAborts = "xshard.aborts"
	// CounterXShardRetries counts abort-retry rounds (a transaction that
	// aborts twice and then commits adds two).
	CounterXShardRetries = "xshard.retries"
)

// EventRecord stamps one fired schedule event: its name and the actual
// offset into the run at which it executed.
type EventRecord struct {
	Name string        `json:"name"`
	At   time.Duration `json:"at_ns"`
}

// Report carries the metrics of one driver run: the paper's throughput,
// latency, scalability inputs (vary Nodes/Clients across runs), fault-
// tolerance series and security (fork) numbers, plus the generic
// resource-counter map for the utilization figures.
type Report struct {
	Platform string        `json:"platform"`
	Workload string        `json:"workload"`
	Nodes    int           `json:"nodes"`
	Clients  int           `json:"clients"`
	Duration time.Duration `json:"duration_ns"`
	// Aborted is set when the run's context was cancelled before the
	// configured duration elapsed; the metrics cover the partial window.
	Aborted bool `json:"aborted,omitempty"`

	Submitted    uint64 `json:"submitted"`
	SubmitErrors uint64 `json:"submit_errors"`
	Committed    uint64 `json:"committed"`
	// Throughput is committed transactions per second ("number of
	// successful transactions per second").
	Throughput float64 `json:"throughput"`

	// Latency statistics in seconds ("response time per transaction").
	LatencyMean float64 `json:"latency_mean_s"`
	LatencyP50  float64 `json:"latency_p50_s"`
	LatencyP90  float64 `json:"latency_p90_s"`
	LatencyP99  float64 `json:"latency_p99_s"`
	// CDF points for the latency-distribution figure.
	LatencyCDFValues    []float64 `json:"latency_cdf_values,omitempty"`
	LatencyCDFFractions []float64 `json:"latency_cdf_fractions,omitempty"`

	// Per-bucket series: average outstanding queue length and committed
	// transactions per bucket.
	QueueSeries  []float64     `json:"queue_series,omitempty"`
	CommitSeries []float64     `json:"commit_series,omitempty"`
	Bucket       time.Duration `json:"bucket_ns"`

	// Blocks committed during the run at node 0.
	Blocks uint64 `json:"blocks"`
	// ForkTotal/ForkMain: blocks generated on any branch vs the main
	// chain (security metric; equal when there are no forks).
	ForkTotal uint64 `json:"fork_total"`
	ForkMain  uint64 `json:"fork_main"`

	// Network counters over the run.
	BytesSent   uint64 `json:"bytes_sent"`
	MsgsSent    uint64 `json:"msgs_sent"`
	MsgsDropped uint64 `json:"msgs_dropped"`

	// Counters holds the run's delta of every platform counter the
	// cluster's engines expose (metrics.CounterProvider), keyed by
	// namespaced "engine.metric" names — PoW hash attempts, execution
	// time, Raft elections, PBFT view changes, and whatever a registered
	// backend adds. Use the named accessors for the framework's own keys.
	Counters map[string]uint64 `json:"counters,omitempty"`

	// Events is the stamped timeline of scheduled fault/attack events
	// executed during the run, in firing order.
	Events []EventRecord `json:"events,omitempty"`

	// Stages maps each lifecycle stage name (submit, admit, batch,
	// propose, order, execute, state_commit, confirm) to its sampled
	// latency statistics — the layered "where does the latency go"
	// breakdown. Always carries the full stage key set; stages no
	// sampled transaction crossed report zero counts.
	Stages map[string]StageStat `json:"stages"`

	// Traces holds the most recent complete sampled lifecycle spans
	// (bounded by the tracer's ring), oldest first.
	Traces []Trace `json:"traces,omitempty"`

	// ChaosSeed is the seed of the randomized fault timeline when the
	// run was driven with chaos injection (0 otherwise). Re-running with
	// the same seed reproduces the kill/partition/link-fault schedule
	// exactly.
	ChaosSeed int64 `json:"chaos_seed,omitempty"`
	// Invariants lists safety-invariant violations detected during and
	// after the run — committed-prefix disagreement, height regression
	// without a restart, cross-shard over-resolution, workload-level
	// conservation breaks. Empty on a clean run; any entry means the run
	// (and CI) must fail.
	Invariants []string `json:"invariants,omitempty"`
}

// StageStat is one pipeline stage's sampled latency statistics, in
// seconds, measured from the previous stamped stage. The submit stage is
// the span epoch: it reports only how many spans were opened.
type StageStat struct {
	Count uint64  `json:"count"`
	MeanS float64 `json:"mean_s"`
	P50S  float64 `json:"p50_s"`
	P99S  float64 `json:"p99_s"`
}

// TraceStamp is one stage crossing of an exported trace, as an offset
// from the span's submit stamp.
type TraceStamp struct {
	Stage    string `json:"stage"`
	OffsetNs int64  `json:"offset_ns"`
}

// Trace is one complete sampled transaction lifecycle.
type Trace struct {
	ID     string       `json:"id"`
	Stages []TraceStamp `json:"stages"`
}

// Counter returns one named platform counter (0 when absent).
func (r *Report) Counter(name string) uint64 { return r.Counters[name] }

// PowHashes reports total PoW hash attempts across the cluster (CPU
// utilization proxy; 0 on non-PoW platforms).
func (r *Report) PowHashes() uint64 { return r.Counters[CounterPowHashes] }

// ExecTime reports cumulative time spent inside contract execution
// across the cluster.
func (r *Report) ExecTime() time.Duration {
	return time.Duration(r.Counters[CounterExecTimeNs])
}

// Elections counts leader elections started across the cluster during
// the run (Raft-ordered platforms; 0 elsewhere). A stable cluster elects
// once and then only heartbeats.
func (r *Report) Elections() uint64 { return r.Counters[CounterElections] }

// CrossShardRatio reports the fraction of routed transactions that
// touched more than one shard (0 on unsharded platforms, which expose
// neither counter).
func (r *Report) CrossShardRatio() float64 {
	x := r.Counters[CounterXShardTxs]
	total := x + r.Counters[CounterXShardFastpath]
	if total == 0 {
		return 0
	}
	return float64(x) / float64(total)
}

// BlockRate returns blocks per second over the run.
func (r *Report) BlockRate() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Blocks) / r.Duration.Seconds()
}

// NetworkMBps returns average network utilization in MB/s.
func (r *Report) NetworkMBps() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.BytesSent) / r.Duration.Seconds() / 1e6
}

// String renders a compact single-run summary. Fault signals — submit
// errors, leader elections, stale forks, an aborted window — appear when
// nonzero, so a run with a crashed leader reads differently from a
// healthy one.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s nodes=%d clients=%d: %.0f tx/s, latency mean=%.3fs p99=%.3fs",
		r.Platform, r.Workload, r.Nodes, r.Clients, r.Throughput, r.LatencyMean, r.LatencyP99)
	fmt.Fprintf(&b, ", blocks=%d (%.2f/s)", r.Blocks, r.BlockRate())
	if r.SubmitErrors > 0 {
		fmt.Fprintf(&b, ", submit-errors=%d", r.SubmitErrors)
	}
	if n := r.Elections(); n > 0 {
		fmt.Fprintf(&b, ", elections=%d", n)
	}
	if r.ForkTotal > r.ForkMain {
		fmt.Fprintf(&b, ", forks=%d stale", r.ForkTotal-r.ForkMain)
	}
	if x := r.Counters[CounterXShardTxs]; x > 0 {
		fmt.Fprintf(&b, ", xshard=%.0f%% (commits=%d aborts=%d retries=%d)",
			100*r.CrossShardRatio(), r.Counters[CounterXShardCommits],
			r.Counters[CounterXShardAborts], r.Counters[CounterXShardRetries])
	}
	if r.ChaosSeed != 0 {
		fmt.Fprintf(&b, ", chaos-seed=%d", r.ChaosSeed)
	}
	if len(r.Invariants) > 0 {
		fmt.Fprintf(&b, ", INVARIANT VIOLATIONS=%d", len(r.Invariants))
	}
	if r.Aborted {
		b.WriteString(", aborted")
	}
	return b.String()
}

// CounterNames returns the report's counter keys in sorted order (stable
// rendering for logs and tests).
func (r *Report) CounterNames() []string {
	names := make([]string, 0, len(r.Counters))
	for k := range r.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
