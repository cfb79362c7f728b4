// Package trace implements sampled per-transaction lifecycle tracing:
// the observability layer behind the driver's stage-latency breakdowns
// (the paper's "where does the latency go" question, asked live).
//
// A transaction's span is opened when a client submits it and stamped
// at each pipeline stage it crosses — pool admission, batch/forward,
// consensus propose, ordering into a block, execution, state commit,
// client confirmation. The stamps feed one exact metrics.Histogram per
// stage, the same type as the driver's confirm latency: 8 bytes per
// sampled transaction per stage, which is the growth the confirm
// histogram already has per committed transaction. Summaries reads them
// as the report's stage map (every driver snapshot and /metrics), and
// completed spans land in a fixed ring buffer exported as whole traces
// (/traces, the JSONL report).
//
// Sampling is decided once, at submit, as a pure function of the
// transaction hash: a span exists iff the hash's leading 64 bits fall
// under the configured threshold. Every component — txpool, the
// consensus engines, the sharded 2PC gateway, the ledger, the driver —
// applies the same arithmetic, so they agree on the sampled set with no
// coordination and an unsampled transaction costs one atomic load and
// one compare per stamp site. Stamps are first-wins per (transaction,
// stage): N replicas appending the same block, a re-proposed batch or a
// 2PC retry re-stamp harmlessly, and the recorded per-transaction stage
// sequence stays in canonical pipeline order with nondecreasing times.
//
// All methods are nil-receiver-safe: a nil *Tracer is a disabled
// tracer, so components take one unconditionally.
package trace

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"blockbench/internal/metrics"
	"blockbench/internal/types"
	"blockbench/report"
)

// Stage identifies one pipeline stage, in canonical order.
type Stage uint8

// The transaction lifecycle stages. The value order is the pipeline
// order; per-stage latency is measured from the previous stamped stage.
const (
	// StageSubmit: the client handed the transaction to its server.
	StageSubmit Stage = iota
	// StageAdmit: a pending pool accepted the transaction (the
	// submitting node's pool, or the sharded gateway's outbound queue).
	StageAdmit
	// StageBatch: a pool batch picked the transaction up (consensus
	// batching, or the sharded gateway's forward flush).
	StageBatch
	// StagePropose: a consensus proposal included the transaction (a
	// mined/sealed candidate block, a Raft log entry, a PBFT
	// pre-prepare).
	StagePropose
	// StageOrder: a node accepted a block carrying the transaction into
	// its ledger (consensus ordering reached the chain).
	StageOrder
	// StageExecute: the transaction's block finished executing.
	StageExecute
	// StageStateCommit: the executed state was committed to storage.
	StageStateCommit
	// StageConfirm: the driver's poller observed the transaction
	// committed — the client-visible end of the span.
	StageConfirm

	// NumStages is the number of lifecycle stages.
	NumStages = 8
)

var stageNames = [NumStages]string{
	"submit", "admit", "batch", "propose",
	"order", "execute", "state_commit", "confirm",
}

// String returns the stage's snake_case name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// span is one live sampled transaction.
type span struct {
	mu sync.Mutex
	at [NumStages]time.Time
}

// spanShards is the lock-striping factor of the live-span map.
const spanShards = 16

// RingSize is how many completed traces the tracer retains.
const RingSize = 256

type spanShard struct {
	mu sync.Mutex
	m  map[types.Hash]*span
}

// Tracer carries one cluster's lifecycle tracing state. Zero sampling
// (the initial state, and after Reset(0)) disables every stamp site.
type Tracer struct {
	// threshold: a transaction is sampled iff the leading 64 bits of
	// its hash are below it (or it is MaxUint64, meaning sample-all).
	// 0 disables tracing entirely.
	threshold atomic.Uint64
	sampled   atomic.Uint64 // spans opened since Reset

	// hists[s] holds stage s's latency from its previous stage, one
	// sample per sampled transaction; index 0 (submit) is unused —
	// submit is the epoch.
	hists [NumStages]metrics.Histogram

	shards [spanShards]spanShard

	ringMu   sync.Mutex
	ring     [RingSize]report.Trace
	ringLen  int
	ringNext int
}

// New returns a disabled tracer; Reset arms it.
func New() *Tracer {
	t := &Tracer{}
	for i := range t.shards {
		t.shards[i].m = make(map[types.Hash]*span)
	}
	return t
}

// Reset clears all spans, stage histograms and retained traces, then
// arms the tracer at the given sample rate (0 disables, 1 samples
// everything). The driver calls it once per run, after workload
// preloading, so init traffic is never traced.
func (t *Tracer) Reset(sample float64) {
	if t == nil {
		return
	}
	var th uint64
	switch {
	case sample <= 0:
		th = 0
	case sample >= 1:
		th = math.MaxUint64
	default:
		th = uint64(sample * float64(math.MaxUint64))
		if th == 0 {
			th = 1
		}
	}
	t.threshold.Store(th)
	t.sampled.Store(0)
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		sh.m = make(map[types.Hash]*span)
		sh.mu.Unlock()
	}
	for i := range t.hists {
		t.hists[i].Reset()
	}
	t.ringMu.Lock()
	t.ringLen, t.ringNext = 0, 0
	t.ringMu.Unlock()
}

// Enabled reports whether any sampling is armed.
func (t *Tracer) Enabled() bool {
	return t != nil && t.threshold.Load() != 0
}

// SampleRate returns the armed sampling fraction.
func (t *Tracer) SampleRate() float64 {
	if t == nil {
		return 0
	}
	th := t.threshold.Load()
	if th == math.MaxUint64 {
		return 1
	}
	return float64(th) / float64(math.MaxUint64)
}

// Sampled reports the sampling decision for a transaction hash — the
// same pure function every stamp site applies.
func (t *Tracer) Sampled(h types.Hash) bool {
	if t == nil {
		return false
	}
	th := t.threshold.Load()
	if th == 0 {
		return false
	}
	return th == math.MaxUint64 || binary.LittleEndian.Uint64(h[:8]) < th
}

// Stamp records that tx h crossed stage s now. Unsampled transactions
// return after one atomic load and one compare; repeated stamps of the
// same (tx, stage) keep the first. A span only exists from StageSubmit
// on, so stray stamps for traffic that never entered through a client
// (preloads, catch-up replays) are ignored.
func (t *Tracer) Stamp(h types.Hash, s Stage) {
	if !t.Sampled(h) {
		return
	}
	now := time.Now()
	sh := &t.shards[h[1]&(spanShards-1)]
	sh.mu.Lock()
	sp := sh.m[h]
	if sp == nil {
		if s != StageSubmit {
			sh.mu.Unlock()
			return
		}
		sp = &span{}
		sh.m[h] = sp
		t.sampled.Add(1)
	}
	sh.mu.Unlock()

	sp.mu.Lock()
	if !sp.at[s].IsZero() {
		sp.mu.Unlock()
		return // first-wins
	}
	sp.at[s] = now
	var prev time.Time
	for i := int(s) - 1; i >= 0; i-- {
		if !sp.at[i].IsZero() {
			prev = sp.at[i]
			break
		}
	}
	var done [NumStages]time.Time
	if s == StageConfirm {
		done = sp.at
	}
	sp.mu.Unlock()

	if s != StageSubmit && !prev.IsZero() {
		t.hists[s].Observe(now.Sub(prev))
	}
	if s == StageConfirm {
		t.complete(h, done)
	}
}

// Abort discards tx h's live span, if any, without recording a trace.
// Callers use it when a submission fails after the submit stamp opened
// the span — the transaction will never confirm, so the span would
// otherwise sit in the live map until Reset.
func (t *Tracer) Abort(h types.Hash) {
	if !t.Sampled(h) {
		return
	}
	sh := &t.shards[h[1]&(spanShards-1)]
	sh.mu.Lock()
	if _, ok := sh.m[h]; ok {
		delete(sh.m, h)
		t.sampled.Add(^uint64(0))
	}
	sh.mu.Unlock()
}

// complete closes a span: it leaves the live map and its stage sequence
// joins the ring of retained traces.
func (t *Tracer) complete(h types.Hash, at [NumStages]time.Time) {
	sh := &t.shards[h[1]&(spanShards-1)]
	sh.mu.Lock()
	delete(sh.m, h)
	sh.mu.Unlock()

	start := at[StageSubmit]
	tr := report.Trace{ID: h.Hex(), Stages: make([]report.TraceStamp, 0, NumStages)}
	for s := 0; s < NumStages; s++ {
		if at[s].IsZero() {
			continue
		}
		tr.Stages = append(tr.Stages, report.TraceStamp{
			Stage:    stageNames[s],
			OffsetNs: at[s].Sub(start).Nanoseconds(),
		})
	}
	t.ringMu.Lock()
	t.ring[t.ringNext] = tr
	t.ringNext = (t.ringNext + 1) % RingSize
	if t.ringLen < RingSize {
		t.ringLen++
	}
	t.ringMu.Unlock()
}

// Recent returns the retained completed traces, oldest first.
func (t *Tracer) Recent() []report.Trace {
	if t == nil {
		return nil
	}
	t.ringMu.Lock()
	defer t.ringMu.Unlock()
	out := make([]report.Trace, 0, t.ringLen)
	start := t.ringNext - t.ringLen
	if start < 0 {
		start += RingSize
	}
	for i := 0; i < t.ringLen; i++ {
		out = append(out, t.ring[(start+i)%RingSize])
	}
	return out
}

// Pending returns the number of live (opened, unconfirmed) spans.
func (t *Tracer) Pending() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// SampledCount returns how many spans have been opened since Reset.
func (t *Tracer) SampledCount() uint64 {
	if t == nil {
		return 0
	}
	return t.sampled.Load()
}

// Summaries returns every stage's latency statistics keyed by stage
// name, always carrying all eight keys (zero counts included), so
// consumers can rely on the full key set frame after frame. Submit is
// the span epoch and reports only how many spans were opened.
func (t *Tracer) Summaries() map[string]report.StageStat {
	out := make(map[string]report.StageStat, NumStages)
	for s := 0; s < NumStages; s++ {
		out[stageNames[s]] = report.StageStat{}
	}
	if t == nil {
		return out
	}
	out[stageNames[StageSubmit]] = report.StageStat{Count: t.sampled.Load()}
	for s := 1; s < NumStages; s++ {
		h := &t.hists[s]
		out[stageNames[s]] = report.StageStat{
			Count: uint64(h.Count()),
			MeanS: h.Mean(),
			P50S:  h.Quantile(0.50),
			P99S:  h.Quantile(0.99),
		}
	}
	return out
}
