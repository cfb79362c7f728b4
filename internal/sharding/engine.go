package sharding

import (
	"errors"
	"fmt"
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/consensus/raft"
	"blockbench/internal/types"
)

// ErrBusy is returned by SubmitTx when the gateway's forward queue (or
// its cross-shard coordination table) is full; clients back off and
// retry, as with a busy server.
var ErrBusy = errors.New("sharding: gateway at capacity")

// Options tunes the sharded execution engine.
type Options struct {
	// Shards is the number of shard groups (clamped to the node count).
	Shards int
	// Raft tunes the per-shard consensus groups.
	Raft raft.Options
	// Seed feeds the inner consensus groups' randomized timeouts.
	Seed int64
}

// DefaultOptions returns the sharded-preset defaults.
func DefaultOptions() Options {
	return Options{Shards: 4, Raft: raft.DefaultOptions()}
}

// Engine is one node's sharded execution stack: a core (the gateway, the
// 2PC roles and the shard group's Raft replica) behind the node's one
// runner, which is its consensus.Engine (Stop alone is overridden). It
// also implements the node package's Router (client transactions are
// routed instead of pooled locally, and commits on foreign shards are
// surfaced back through BlocksFrom/Receipt).
type Engine struct {
	*consensus.Runner // its mutex guards the core, replica included
	*core
}

// New builds the sharded engine for one node from resolved options
// (DefaultOptions states the defaults). The runner wakes the core on its
// timer and whenever the outbound queue admits a transaction.
func New(ctx consensus.Context, opts Options) *Engine {
	e := &Engine{core: newCore(ctx, opts, time.Now())}
	e.Runner = consensus.NewRunner(e.step, e.outbound.Notify())
	return e
}

// Shard returns this node's shard group index.
func (e *Engine) Shard() int { return e.shard }

// Partition exposes the engine's partitioner (tests, skew tooling).
func (e *Engine) Partition() HashPartitioner { return e.part }

// IsLeader reports whether this node leads its shard group.
func (e *Engine) IsLeader() bool {
	e.Lock()
	defer e.Unlock()
	return e.replica.IsLeader()
}

// LeaseRead implements the node package's lease-read hook: a gateway
// vouches for read freshness exactly when its own shard group's replica
// holds a live leader lease.
func (e *Engine) LeaseRead() bool {
	e.Lock()
	defer e.Unlock()
	return e.replica.LeaseRead(time.Now())
}

// ApplyMismatch forwards the shard group's replica's (see
// raft.Core.ApplyMismatch) to the invariant checker.
func (e *Engine) ApplyMismatch() (index, height uint64, ok bool) {
	e.Lock()
	defer e.Unlock()
	return e.replica.ApplyMismatch()
}

// Stop implements consensus.Engine: the runner's, then pending
// cross-shard coordinations are resolved as aborts so the commit/abort
// accounting stays exact.
func (e *Engine) Stop() {
	e.Runner.Stop()
	e.Lock()
	defer e.Unlock()
	e.xAborts += uint64(len(e.coord))
	clear(e.coord)
}

// Counters implements metrics.CounterProvider: the cross-shard commit
// protocol's counters (read under one lock, so commits + aborts never
// exceeds txs), plus the replica's both raw (so cluster-wide aggregates
// like raft.elections keep working) and under a per-shard prefix (so
// shard imbalance is visible per group).
func (e *Engine) Counters() map[string]uint64 {
	e.Lock()
	defer e.Unlock()
	out := map[string]uint64{
		"xshard.commits":  e.xCommits,
		"xshard.aborts":   e.xAborts,
		"xshard.txs":      e.xTxs,
		"xshard.fastpath": e.fastpath,
		"xshard.retries":  e.xRetries,
	}
	for k, v := range e.replica.Counters() {
		out[k] = v
		out[fmt.Sprintf("shard%d.%s", e.shard, k)] = v
	}
	return out
}

// SubmitTx implements Router: client submissions are routed by the
// shards their keys touch instead of entering the local pool. Single-shard
// transactions take the fast path (queued, outside the runner's lock, for
// the next key-affinity forward flush; no 2PC); cross-shard transactions
// open a two-phase commit with this node as coordinator.
func (e *Engine) SubmitTx(tx *types.Transaction) error {
	shards := TouchedShards(e.part, tx)
	if len(shards) == 1 {
		if e.outbound.Add(tx) || e.outbound.Known(tx.Hash()) {
			return nil // queued, or a duplicate: already routed
		}
		return ErrBusy
	}
	e.Lock()
	defer e.Unlock()
	now := time.Now()
	err := e.submit(now, tx, shards)
	e.Arm(now, e.settle(now))
	return err
}

// DrainRemoteCommits implements Router: transaction IDs whose commits
// happened on shards this node is not a member of, ready to surface to
// this node's polling clients (each ID is delivered once).
func (e *Engine) DrainRemoteCommits() []types.Hash {
	e.Lock()
	defer e.Unlock()
	out := e.remoteQ
	e.remoteQ = nil
	return out
}

// CommittedElsewhere implements Router: whether the gateway knows id
// committed on every foreign shard it touched.
func (e *Engine) CommittedElsewhere(id types.Hash) bool {
	e.Lock()
	defer e.Unlock()
	_, ok := e.remote[id]
	return ok
}
