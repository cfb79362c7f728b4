// Package raft implements Raft crash-fault-tolerant ordering as used by
// the Quorum preset (a geth fork that replaced PoW with Raft for
// permissioned deployments). One node is elected leader with randomized
// timeouts; the leader batches transactions from its pool into log
// entries, replicates them with AppendEntries, and advances the commit
// index once a majority of replicas store an entry. Committed entries
// are applied in log order as blocks on the ledger, so the chain never
// forks and transactions are final the moment they commit — the
// crash-fault-tolerant counterpart to PBFT's Byzantine quorums, with
// O(N) messages per batch instead of O(N^2).
//
// The engine is event-driven and pipelined. Replication rides the
// propose path: a pool notification (or a partial batch coming due)
// proposes and ships AppendEntries immediately, and an acknowledged
// window triggers the next one without waiting for a tick — the timer
// only paces heartbeats, elections and retransmission probes. Each
// follower has an in-flight window (nextIndex runs ahead of matchIndex
// by up to window entries, maxAppend per message) with fast backoff on
// rejection. Leaders that have heard from a majority within
// Heartbeat×leaseFactor serve reads under a leader lease (see
// LeaseRead); once the applied index passes the retention window the
// log prefix is compacted behind a snapshot record, and laggard
// followers are caught up with InstallSnapshot plus a canonical-chain
// sync instead of a replay from index 1.
//
// The package is split along the consensus seam (DESIGN.md): core.go is
// the protocol behind one Step(now, event), with no lock, clock or
// goroutine; Engine here is that core behind a consensus.Runner. Like
// the other engines, a replica processes all messages on its node's
// single inbox goroutine.
package raft

import (
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/types"
)

// Message type tags on the simulated network.
const (
	MsgRequestVote = "raft_reqvote"
	MsgVote        = "raft_vote"
	MsgAppend      = "raft_append"
	MsgAppendResp  = "raft_appendresp"
	MsgSnapshot    = "raft_snapshot"
)

// Entry is one replicated log slot: a batch of transactions stamped
// with the term it was proposed in. Empty batches are leader-change
// barriers and produce no block.
type Entry struct {
	Term uint64
	Txs  []*types.Transaction
}

func (e *Entry) wireSize() int {
	n := 8
	for _, tx := range e.Txs {
		n += tx.WireSize()
	}
	return n
}

// RequestVote solicits a vote for a candidacy at Term.
type RequestVote struct {
	Term         uint64
	LastLogIndex uint64
	LastLogTerm  uint64
}

// WireSize implements simnet.Sizer.
func (*RequestVote) WireSize() int { return 24 }

// Vote answers a RequestVote.
type Vote struct {
	Term    uint64
	Granted bool
}

// WireSize implements simnet.Sizer.
func (*Vote) WireSize() int { return 16 }

// AppendEntries replicates log entries (or, with none, heartbeats).
// Sent is the leader's local clock when the message left, echoed back
// in AppendResp: lease evidence must be anchored at send time — an ack
// only proves the follower recognized this leader at some moment after
// the append was sent, so timing the lease from ack receipt would let
// a delayed ack extend it past the follower's sticky-voter promise.
type AppendEntries struct {
	Term      uint64
	PrevIndex uint64
	PrevTerm  uint64
	Entries   []Entry
	Commit    uint64
	Sent      int64
}

// WireSize implements simnet.Sizer.
func (m *AppendEntries) WireSize() int {
	n := 48
	for i := range m.Entries {
		n += m.Entries[i].wireSize()
	}
	return n
}

// AppendResp acknowledges an AppendEntries. On success Match is the
// highest log index now stored; on failure it hints where the
// follower's log ends so the leader can back up nextIndex quickly.
// Echo returns the append's Sent stamp (0 on replies to messages that
// carry none, e.g. term-mismatch rejections of stale leaders).
type AppendResp struct {
	Term  uint64
	OK    bool
	Match uint64
	Echo  int64
}

// WireSize implements simnet.Sizer.
func (*AppendResp) WireSize() int { return 32 }

// InstallSnapshot replaces a laggard follower's log prefix with the
// leader's snapshot record: the log coordinates the snapshot covers and
// the canonical-chain position (height + block hash, which commits to
// the state root) the follower must reach before applying anything past
// it. The blocks themselves travel over the consensus sync protocol
// (MsgSyncReq/MsgSyncResp) rather than inside this message, so the
// snapshot stays O(1) on the wire and the follower converges to the
// leader's byte-identical chain.
type InstallSnapshot struct {
	Term      uint64
	LastIndex uint64 // last log index covered by the snapshot
	LastTerm  uint64 // its term
	Height    uint64 // chain height after applying LastIndex
	Root      types.Hash
	Sent      int64 // leader send-time stamp, echoed like AppendEntries.Sent
}

// WireSize implements simnet.Sizer.
func (*InstallSnapshot) WireSize() int { return 48 + types.HashSize }

// Options tunes the protocol.
type Options struct {
	// ElectionTimeout is the follower timeout floor; each replica draws
	// a fresh deadline in [ElectionTimeout, 2*ElectionTimeout) so
	// elections rarely collide (Raft's randomized timeouts).
	ElectionTimeout time.Duration
	// Heartbeat is the leader's idle AppendEntries cadence. Replication
	// itself is event-driven (propose-time), so the tick only covers
	// heartbeats, commit propagation to idle followers and probes.
	Heartbeat time.Duration
	// BatchSize is the number of transactions per log entry (Quorum
	// inherits geth's block batching; the repository default matches
	// the PBFT preset's 20 at the 25x scale).
	BatchSize int
	// BatchTimeout proposes a partial batch after this long. It is
	// decoupled from the heartbeat: a due partial batch proposes on the
	// next pool notification or on a wake-up at its due time, never
	// quantized up to the heartbeat.
	BatchTimeout time.Duration
	// Retain is the log compaction retention window: once the applied
	// index runs more than Retain entries past the snapshot, the prefix
	// is truncated behind a snapshot record (at least Retain/2 applied
	// entries stay resident for follower catch-up). 0 disables
	// compaction; the quorum preset default is 4096.
	Retain int
	// Seed makes election-timeout randomization reproducible per node.
	Seed int64
}

// DefaultOptions returns the Quorum-preset defaults.
func DefaultOptions() Options {
	return Options{
		ElectionTimeout: 300 * time.Millisecond,
		Heartbeat:       20 * time.Millisecond,
		BatchSize:       20,
		BatchTimeout:    10 * time.Millisecond,
		Retain:          4096,
	}
}

// The pipeline's and the lease's fixed parameters: each has one value
// in use, so none is an option.
const (
	// window bounds uncommitted entries in flight, and per follower the
	// entries sent ahead of the acknowledged match index (the pipeline
	// depth).
	window = 64
	// maxAppend bounds entries per AppendEntries message; a pipeline
	// burst splits into several messages.
	maxAppend = 32
	// leaseFactor sizes the leader lease as Heartbeat×leaseFactor: a
	// leader that has heard from a majority within the lease serves
	// reads locally (LeaseRead).
	leaseFactor = 3
)

// Engine is one Raft replica driving one node: a core behind a runner,
// which is the consensus.Engine.
type Engine struct {
	*consensus.Runner // its mutex guards the core
	core              *Core
}

// New creates a Raft engine from resolved options (presets and tests
// start from DefaultOptions). All peers run replicas.
func New(ctx consensus.Context, opts Options) *Engine {
	e := &Engine{core: NewCore(ctx, opts, time.Now())}
	var notify <-chan struct{} // pool admission signal (propose-time replication)
	if ctx.Pool != nil {
		notify = ctx.Pool.Notify()
	}
	e.Runner = consensus.NewRunner(e.core.Step, notify)
	return e
}

// IsLeader is the core's, under the lock.
func (e *Engine) IsLeader() bool {
	e.Lock()
	defer e.Unlock()
	return e.core.IsLeader()
}

// LeaseRead is the core's, under the lock at the current time.
func (e *Engine) LeaseRead() bool {
	e.Lock()
	defer e.Unlock()
	return e.core.LeaseRead(time.Now())
}

// ApplyMismatch is the core's, under the lock.
func (e *Engine) ApplyMismatch() (index, height uint64, ok bool) {
	e.Lock()
	defer e.Unlock()
	return e.core.ApplyMismatch()
}

// Counters is the core's, under the lock.
func (e *Engine) Counters() map[string]uint64 {
	e.Lock()
	defer e.Unlock()
	return e.core.Counters()
}
