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
// propose path: a pool notification (or a due partial-batch timer)
// proposes and ships AppendEntries immediately, and an acknowledged
// window triggers the next one without waiting for a tick — the ticker
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
// Like the other engines, a replica processes all messages on its
// node's single inbox goroutine; the timer loop drives heartbeats and
// election timeouts. Corrupted messages (the random-response fault
// injector) fail authentication and are dropped.
package raft

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/merkle"
	"blockbench/internal/simnet"
	"blockbench/internal/trace"
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
	// decoupled from the tick: a due partial batch proposes on the next
	// pool notification or on a sub-tick timer, never quantized up to
	// the heartbeat.
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

type role int

const (
	follower role = iota
	candidate
	leader
)

const noVote = simnet.NodeID(-1)

// metaKey is the MetaStore slot holding this replica's durable hard
// state: term, vote, and the applied-index/chain-height baseline a
// restarted replica resumes from (its log tail is gone, so it comes
// back as if freshly snapshotted at the applied index and re-fetches
// anything newer from the leader — log or InstallSnapshot).
const metaKey = "raft:hard"

// Engine is one Raft replica driving one node.
type Engine struct {
	ctx   consensus.Context
	opts  Options
	lease time.Duration
	peers []simnet.NodeID // sorted, including self

	mu       sync.Mutex
	term     uint64
	votedFor simnet.NodeID
	role     role
	leader   simnet.NodeID

	// The log tail past the snapshot: entry index i (1-based) lives at
	// log[i-snapIndex-1]. Entries at or below snapIndex are compacted
	// away behind the snapshot record.
	log       []Entry
	snapIndex uint64
	snapTerm  uint64
	// snapHeight/snapRoot are the canonical-chain coordinates of the
	// snapshot: the chain height after applying snapIndex and the block
	// hash there (committing to the state root).
	snapHeight uint64
	snapRoot   types.Hash
	commit     uint64
	applied    uint64
	// appliedHeight is the chain height corresponding to the applied
	// index; baseSet latches its baseline at the first apply (after any
	// preloaded history) or at snapshot install.
	appliedHeight uint64
	baseSet       bool

	votes        map[simnet.NodeID]bool
	next         map[simnet.NodeID]uint64
	match        map[simnet.NodeID]uint64
	ackAt        map[simnet.NodeID]time.Time // last AppendResp per follower (lease)
	snapSentAt   map[simnet.NodeID]time.Time // InstallSnapshot throttle
	assigned     map[types.Hash]bool         // txs already batched (leader)
	rng          *rand.Rand
	heardLeader  time.Time // last append/snapshot from a live leader
	deadline     time.Time // election deadline (follower/candidate)
	lastProposal time.Time
	batchDue     time.Time // when a withheld partial batch becomes due
	syncReqAt    time.Time // last chain-sync request (snapshot catch-up)

	elections    atomic.Uint64
	leaderWins   atomic.Uint64
	batchesDone  atomic.Uint64
	leaseReads   atomic.Uint64
	readRedirect atomic.Uint64
	compactions  atomic.Uint64
	snapsSent    atomic.Uint64
	snapsTaken   atomic.Uint64 // snapshots installed (follower side)

	notify  <-chan struct{} // pool admission signal (propose-time replication)
	stop    chan struct{}
	done    sync.WaitGroup
	started atomic.Bool
}

// New creates a Raft engine from resolved options (presets and tests
// start from DefaultOptions). All peers run replicas.
func New(ctx consensus.Context, opts Options) *Engine {
	// The lease must expire before any successor can be elected: cap it
	// at half the election-timeout floor (one shared clock here, so no
	// drift margin beyond that).
	lease := opts.Heartbeat * leaseFactor
	if max := opts.ElectionTimeout / 2; lease > max {
		lease = max
	}
	peers := append([]simnet.NodeID(nil), ctx.Peers...)
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	e := &Engine{
		ctx:        ctx,
		opts:       opts,
		lease:      lease,
		peers:      peers,
		votedFor:   noVote,
		leader:     noVote,
		ackAt:      make(map[simnet.NodeID]time.Time),
		snapSentAt: make(map[simnet.NodeID]time.Time),
		assigned:   make(map[types.Hash]bool),
		rng:        rand.New(rand.NewSource(opts.Seed*7919 + int64(ctx.Self)*104729 + 1)),
		stop:       make(chan struct{}),
	}
	if ctx.Pool != nil {
		e.notify = ctx.Pool.Notify()
	}
	e.restoreMeta()
	e.resetDeadlineLocked(time.Now())
	return e
}

// restoreMeta reloads durable hard state after a process kill. The
// uncommitted log tail did not survive, so the replica resumes as if
// snapshotted exactly at its applied index: commit == applied ==
// snapIndex, with the chain-height baseline recorded at save time.
// Entries past that point are re-fetched from the current leader —
// through ordinary AppendEntries if they are still resident, or
// through InstallSnapshot plus a chain sync if the leader has
// compacted past us.
func (e *Engine) restoreMeta() {
	if e.ctx.Meta == nil {
		return
	}
	buf, ok := e.ctx.Meta.LoadMeta(metaKey)
	if !ok {
		return
	}
	d := types.NewDecoder(buf)
	term := d.Uint64()
	voted := simnet.NodeID(int64(d.Uint64()))
	base := d.Bool()
	applied := d.Uint64()
	appliedTerm := d.Uint64()
	height := d.Uint64()
	if d.Err() != nil {
		return // torn meta record: start clean
	}
	e.term = term
	e.votedFor = voted
	if base {
		e.snapIndex = applied
		e.snapTerm = appliedTerm
		e.commit = applied
		e.applied = applied
		e.appliedHeight = height
		e.snapHeight = height
		e.baseSet = true
		if b, ok := e.ctx.Chain.GetBlock(height); ok {
			e.snapRoot = b.Hash()
		}
	}
}

// saveMetaLocked durably records the hard state. Called whenever term,
// vote or the applied baseline changes; a nil MetaStore disables
// persistence (the pre-crash-recovery behavior).
func (e *Engine) saveMetaLocked() {
	if e.ctx.Meta == nil {
		return
	}
	enc := types.NewEncoder()
	enc.Uint64(e.term)
	enc.Uint64(uint64(int64(e.votedFor)))
	enc.Bool(e.baseSet)
	enc.Uint64(e.applied)
	enc.Uint64(e.termAtLocked(e.applied))
	enc.Uint64(e.appliedHeight)
	e.ctx.Meta.SaveMeta(metaKey, enc.Out())
}

func (e *Engine) majority() int { return len(e.peers)/2 + 1 }

// Start implements consensus.Engine.
func (e *Engine) Start() {
	if !e.started.CompareAndSwap(false, true) {
		return
	}
	e.done.Add(1)
	go e.run()
}

// Stop implements consensus.Engine.
func (e *Engine) Stop() {
	if e.started.CompareAndSwap(true, false) {
		close(e.stop)
		e.done.Wait()
	}
}

// IsLeader reports whether this replica currently leads.
func (e *Engine) IsLeader() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.role == leader
}

// LeaseRead classifies one client read on this replica: true means it
// is the leader under a live majority lease (heard from a majority
// within Heartbeat×leaseFactor) and the local answer is linearizable
// without a log round-trip; false means the read would have to redirect
// to the leader for that guarantee. Counted as raft.lease_reads vs
// raft.read_redirects.
func (e *Engine) LeaseRead() bool {
	e.mu.Lock()
	ok := e.role == leader && e.leaseValidLocked(time.Now())
	e.mu.Unlock()
	if ok {
		e.leaseReads.Add(1)
		return true
	}
	e.readRedirect.Add(1)
	return false
}

// leaseValidLocked reports whether a majority (self included) has
// acknowledged this leader within the lease window.
func (e *Engine) leaseValidLocked(now time.Time) bool {
	cnt := 1 // self
	for _, p := range e.peers {
		if p == e.ctx.Self {
			continue
		}
		if at, ok := e.ackAt[p]; ok && now.Sub(at) <= e.lease {
			cnt++
		}
	}
	return cnt >= e.majority()
}

// Elections counts elections this replica has started.
func (e *Engine) Elections() uint64 { return e.elections.Load() }

// Compactions counts log-compaction rounds on this replica.
func (e *Engine) Compactions() uint64 { return e.compactions.Load() }

// SnapshotsInstalled counts snapshots this replica installed from a
// leader.
func (e *Engine) SnapshotsInstalled() uint64 { return e.snapsTaken.Load() }

// LogLen returns the resident log length (entries past the snapshot) —
// the quantity compaction bounds.
func (e *Engine) LogLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.log)
}

// SnapIndex returns the last log index covered by the local snapshot.
func (e *Engine) SnapIndex() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snapIndex
}

// Counters implements metrics.CounterProvider.
func (e *Engine) Counters() map[string]uint64 {
	return map[string]uint64{
		"raft.elections":         e.elections.Load(),
		"raft.leader_wins":       e.leaderWins.Load(),
		"raft.batches":           e.batchesDone.Load(),
		"raft.lease_reads":       e.leaseReads.Load(),
		"raft.read_redirects":    e.readRedirect.Load(),
		"raft.compactions":       e.compactions.Load(),
		"raft.snapshots_sent":    e.snapsSent.Load(),
		"raft.snapshot_installs": e.snapsTaken.Load(),
	}
}

func (e *Engine) resetDeadlineLocked(now time.Time) {
	jitter := time.Duration(e.rng.Int63n(int64(e.opts.ElectionTimeout)))
	e.deadline = now.Add(e.opts.ElectionTimeout + jitter)
}

// run is the engine loop. The ticker paces heartbeats, elections,
// retransmission probes and snapshot catch-up; proposals are
// event-driven off the pool-notify channel and the sub-tick partial-
// batch timer, so commit latency is bounded by round trips, not ticks.
func (e *Engine) run() {
	defer e.done.Done()
	// The loop cadence is decoupled from the heartbeat cadence: election
	// deadlines must be checked a few times per timeout even when the
	// heartbeat interval is coarser, or every replica's candidacy would
	// quantize onto the same tick and collide forever. Heartbeats still
	// go out only every opts.Heartbeat (lastHB below).
	interval := e.opts.Heartbeat
	if el := e.opts.ElectionTimeout / 4; el < interval {
		interval = el
	}
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	var lastHB time.Time
	tick := time.NewTicker(interval)
	defer tick.Stop()
	batch := time.NewTimer(time.Hour)
	if !batch.Stop() {
		<-batch.C
	}
	batchArmed := false
	// rearm keeps the sub-tick timer aligned with the engine's pending
	// partial batch (batchDue is maintained under mu by proposeLocked).
	rearm := func() {
		e.mu.Lock()
		due := e.batchDue
		e.mu.Unlock()
		if batchArmed {
			if !batch.Stop() {
				select {
				case <-batch.C:
				default:
				}
			}
			batchArmed = false
		}
		if !due.IsZero() {
			d := time.Until(due)
			if d < 0 {
				d = 0
			}
			batch.Reset(d)
			batchArmed = true
		}
	}
	for {
		select {
		case <-e.stop:
			return
		case now := <-tick.C:
			hb := now.Sub(lastHB) >= e.opts.Heartbeat
			if hb {
				lastHB = now
			}
			e.mu.Lock()
			if e.role == leader {
				e.proposeLocked(now)
				e.broadcastAppendsLocked(hb)
				e.advanceCommitLocked()
			} else {
				if now.After(e.deadline) {
					e.startElectionLocked(now)
				}
				e.maybeSyncLocked(now)
			}
			e.mu.Unlock()
			rearm()
		case <-e.notify:
			// Propose-time replication: a pool admission proposes and
			// ships the new entries immediately.
			now := time.Now()
			e.mu.Lock()
			if e.role == leader {
				if e.proposeLocked(now) {
					e.broadcastAppendsLocked(false)
					e.advanceCommitLocked() // single-node clusters commit inline
				}
			}
			e.mu.Unlock()
			rearm()
		case <-batch.C:
			batchArmed = false
			now := time.Now()
			e.mu.Lock()
			if e.role == leader {
				if e.proposeLocked(now) {
					e.broadcastAppendsLocked(false)
					e.advanceCommitLocked()
				}
			}
			e.mu.Unlock()
			rearm()
		}
	}
}

// lastIndexLocked returns the index of the last log entry (snapshot
// included).
func (e *Engine) lastIndexLocked() uint64 { return e.snapIndex + uint64(len(e.log)) }

// termAtLocked returns the term of the log entry at index (snapTerm for
// the snapshot boundary and the compacted prefix, 0 past the end).
func (e *Engine) termAtLocked(index uint64) uint64 {
	if index <= e.snapIndex {
		return e.snapTerm
	}
	if index > e.lastIndexLocked() {
		return 0
	}
	return e.log[index-e.snapIndex-1].Term
}

func (e *Engine) entryAtLocked(index uint64) *Entry {
	return &e.log[index-e.snapIndex-1]
}

// startElectionLocked begins a candidacy for term+1.
func (e *Engine) startElectionLocked(now time.Time) {
	e.term++
	e.role = candidate
	e.leader = noVote
	e.votedFor = e.ctx.Self
	e.votes = map[simnet.NodeID]bool{e.ctx.Self: true}
	e.elections.Add(1)
	e.saveMetaLocked() // term++/self-vote must be durable before soliciting
	e.resetDeadlineLocked(now)
	last := e.lastIndexLocked()
	rv := &RequestVote{Term: e.term, LastLogIndex: last, LastLogTerm: e.termAtLocked(last)}
	e.ctx.Endpoint.Broadcast(MsgRequestVote, rv)
	e.maybeWinLocked() // single-node clusters win on their own vote
}

// upToDateLocked implements the Raft voting restriction: grant only to
// candidates whose log is at least as complete as ours, which keeps
// committed entries from being lost across leader changes.
func (e *Engine) upToDateLocked(lastIndex, lastTerm uint64) bool {
	myLast := e.lastIndexLocked()
	myTerm := e.termAtLocked(myLast)
	if lastTerm != myTerm {
		return lastTerm > myTerm
	}
	return lastIndex >= myLast
}

// stepDownLocked returns to follower state, adopting a newer term.
func (e *Engine) stepDownLocked(term uint64, now time.Time) {
	if term > e.term {
		e.term = term
		e.votedFor = noVote
		e.saveMetaLocked() // adopted term must survive a crash
	}
	e.role = follower
	e.votes = nil
	e.batchDue = time.Time{}
	if len(e.assigned) > 0 {
		e.assigned = make(map[types.Hash]bool)
	}
	e.resetDeadlineLocked(now)
}

// maybeWinLocked promotes a candidate holding a majority of votes.
func (e *Engine) maybeWinLocked() {
	if e.role != candidate || len(e.votes) < e.majority() {
		return
	}
	e.role = leader
	e.leader = e.ctx.Self
	e.leaderWins.Add(1)
	e.next = make(map[simnet.NodeID]uint64, len(e.peers))
	e.match = make(map[simnet.NodeID]uint64, len(e.peers))
	e.ackAt = make(map[simnet.NodeID]time.Time, len(e.peers))
	last := e.lastIndexLocked()
	for _, p := range e.peers {
		e.next[p] = last + 1
	}
	// Re-mark transactions sitting in unapplied entries so the new
	// leader does not batch them twice while the barrier below commits.
	e.assigned = make(map[types.Hash]bool)
	for i := e.applied + 1; i <= last; i++ {
		for _, tx := range e.entryAtLocked(i).Txs {
			e.assigned[tx.Hash()] = true
		}
	}
	// A leader may only count replicas toward commitment for entries of
	// its own term (§5.4.2), so append a no-op barrier to flush any
	// uncommitted entries inherited from prior terms.
	if last > e.commit {
		e.log = append(e.log, Entry{Term: e.term})
	}
	e.lastProposal = time.Time{}
	e.broadcastAppendsLocked(true)
	e.advanceCommitLocked()
}

// pickBatchLocked selects pending transactions not already in flight.
func (e *Engine) pickBatchLocked() []*types.Transaction {
	candidates := e.ctx.Pool.Batch(e.opts.BatchSize+len(e.assigned), 0)
	out := make([]*types.Transaction, 0, e.opts.BatchSize)
	for _, tx := range candidates {
		if e.assigned[tx.Hash()] {
			continue
		}
		out = append(out, tx)
		if len(out) >= e.opts.BatchSize {
			break
		}
	}
	return out
}

// proposeLocked appends new log entries from the pool: full batches
// immediately, partial batches once BatchTimeout has passed (Fabric-
// style size/timeout batching, which Quorum's geth lineage shares). A
// withheld partial batch records its due time in batchDue so the run
// loop can fire a sub-tick timer instead of quantizing the timeout up
// to the next heartbeat. Reports whether anything was appended.
func (e *Engine) proposeLocked(now time.Time) bool {
	e.batchDue = time.Time{}
	appended := false
	for rounds := 0; rounds < 8; rounds++ {
		if e.lastIndexLocked()-e.commit >= window {
			break
		}
		txs := e.pickBatchLocked()
		if len(txs) == 0 {
			break
		}
		if len(txs) < e.opts.BatchSize && !e.lastProposal.IsZero() {
			if due := e.lastProposal.Add(e.opts.BatchTimeout); now.Before(due) {
				// Wait for a fuller batch; the sub-tick timer (or the
				// next pool notification) retries at the deadline.
				e.batchDue = due
				break
			}
		}
		for _, tx := range txs {
			e.assigned[tx.Hash()] = true
			e.ctx.Tracer.Stamp(tx.Hash(), trace.StagePropose)
		}
		e.log = append(e.log, Entry{Term: e.term, Txs: txs})
		e.lastProposal = now
		appended = true
	}
	return appended
}

// broadcastAppendsLocked replicates to every follower. With heartbeat
// set, followers with nothing outstanding still receive an empty
// AppendEntries carrying the commit index (and refreshing the lease).
func (e *Engine) broadcastAppendsLocked(heartbeat bool) {
	for _, p := range e.peers {
		if p != e.ctx.Self {
			e.sendToLocked(p, heartbeat)
		}
	}
}

// sendToLocked ships the follower's next window(s). Pipelined: nextIndex
// advances optimistically as messages go out, running ahead of the
// acknowledged matchIndex by up to window entries in maxAppend-sized
// messages, so a burst streams without waiting for per-message acks.
// Followers behind the compacted prefix get an InstallSnapshot instead.
func (e *Engine) sendToLocked(p simnet.NodeID, heartbeat bool) {
	ni := e.next[p]
	if ni == 0 {
		ni = 1
	}
	if ni <= e.snapIndex {
		e.sendSnapshotLocked(p)
		return
	}
	last := e.lastIndexLocked()
	sent := false
	for ni <= last && ni-1-e.match[p] < window {
		end := ni - 1 + maxAppend
		if end > last {
			end = last
		}
		// Copy: the payload crosses goroutines by reference and our log
		// tail may later be truncated by a successor leader.
		entries := append([]Entry(nil), e.log[ni-e.snapIndex-1:end-e.snapIndex]...)
		e.ctx.Endpoint.Send(p, MsgAppend, &AppendEntries{
			Term:      e.term,
			PrevIndex: ni - 1,
			PrevTerm:  e.termAtLocked(ni - 1),
			Entries:   entries,
			Commit:    e.commit,
			Sent:      time.Now().UnixNano(),
		})
		ni = end + 1
		sent = true
	}
	e.next[p] = ni
	if !sent && heartbeat {
		e.ctx.Endpoint.Send(p, MsgAppend, &AppendEntries{
			Term:      e.term,
			PrevIndex: ni - 1,
			PrevTerm:  e.termAtLocked(ni - 1),
			Commit:    e.commit,
			Sent:      time.Now().UnixNano(),
		})
	}
}

// sendSnapshotLocked offers the local snapshot to a follower whose next
// index fell behind the compacted prefix, throttled per follower to one
// offer per heartbeat interval.
func (e *Engine) sendSnapshotLocked(p simnet.NodeID) {
	now := time.Now()
	if at, ok := e.snapSentAt[p]; ok && now.Sub(at) < e.opts.Heartbeat {
		return
	}
	e.snapSentAt[p] = now
	e.snapsSent.Add(1)
	e.ctx.Endpoint.Send(p, MsgSnapshot, &InstallSnapshot{
		Term:      e.term,
		LastIndex: e.snapIndex,
		LastTerm:  e.snapTerm,
		Height:    e.snapHeight,
		Root:      e.snapRoot,
		Sent:      now.UnixNano(),
	})
}

// advanceCommitLocked moves the commit index to the highest entry of
// the current term stored by a majority, then applies. It reports
// whether the commit index moved, so the caller can propagate it to
// followers without waiting for the next heartbeat.
func (e *Engine) advanceCommitLocked() bool {
	advanced := false
	if e.role == leader {
		for n := e.lastIndexLocked(); n > e.commit; n-- {
			if e.termAtLocked(n) != e.term {
				break // older terms commit transitively (§5.4.2)
			}
			cnt := 1 // self
			for _, p := range e.peers {
				if p != e.ctx.Self && e.match[p] >= n {
					cnt++
				}
			}
			if cnt >= e.majority() {
				advanced = n > e.commit
				e.commit = n
				break
			}
		}
	}
	e.applyLocked()
	return advanced
}

// applyLocked executes committed entries in log order, appending one
// block per non-empty batch. Every replica builds byte-identical blocks
// (deterministic header, no proposer), exactly like the PBFT preset. A
// replica that installed a snapshot holds off until the chain sync has
// delivered the snapshot's blocks; blocks the sync already delivered
// past that point are recognized by height and skipped instead of
// rebuilt. Applied prefixes past the retention window are compacted.
func (e *Engine) applyLocked() {
	if !e.baseSet {
		// Baseline: the chain height the log's first entry builds on
		// (preloaded history stays outside the log's accounting).
		e.appliedHeight = e.ctx.Chain.Height()
		e.snapHeight = e.appliedHeight
		e.baseSet = true
	}
	before := e.applied
	defer func() {
		if e.applied != before {
			// The meta write lands after the blocks it accounts for, so a
			// crash between the two leaves meta.Height at most the chain
			// height — restore absorbs the gap via the skip-account path.
			e.saveMetaLocked()
		}
	}()
	for e.applied < e.commit {
		if e.ctx.Chain.Height() < e.appliedHeight {
			return // chain sync toward the snapshot still in flight
		}
		en := e.entryAtLocked(e.applied + 1)
		if len(en.Txs) == 0 {
			e.applied++
			continue
		}
		target := e.appliedHeight + 1
		if e.ctx.Chain.Height() >= target {
			// Already on the chain (delivered by the snapshot sync);
			// account for it without rebuilding.
			e.applied++
			e.appliedHeight = target
			for _, tx := range en.Txs {
				delete(e.assigned, tx.Hash())
			}
			e.batchesDone.Add(1)
			continue
		}
		head := e.ctx.Chain.Head()
		block := &types.Block{
			Header: types.Header{
				Number:     head.Number() + 1,
				ParentHash: head.Hash(),
				Time:       int64(head.Number() + 1),
				View:       en.Term,
				// TxRoot makes the block content-addressed: without it
				// two chains (the sharded platform runs one per group)
				// could build same-height blocks with identical hashes
				// over different transactions.
				TxRoot: merkle.TxRoot(en.Txs),
			},
			Txs: en.Txs,
		}
		if err := e.ctx.Chain.Append(block); err != nil {
			return // retry on the next event
		}
		e.applied++
		e.appliedHeight = target
		for _, tx := range en.Txs {
			delete(e.assigned, tx.Hash())
		}
		e.batchesDone.Add(1)
	}
	e.maybeCompactLocked()
}

// maybeCompactLocked truncates the applied log prefix behind a snapshot
// record once it outgrows the retention window, keeping at least
// Retain/2 applied entries resident so nearby followers still catch up
// from the log (amortizing the copy to O(1) per applied entry). The
// snapshot records the chain height and block hash at the cutoff; a
// follower further behind than the resident prefix is caught up with
// InstallSnapshot plus a chain sync.
func (e *Engine) maybeCompactLocked() {
	retain := uint64(e.opts.Retain)
	if retain == 0 || e.applied-e.snapIndex <= retain {
		return
	}
	keep := retain / 2
	if keep == 0 {
		keep = 1
	}
	cutoff := e.applied - keep
	// Walk the dropped prefix to advance the snapshot's chain height
	// (empty barrier entries produce no block).
	h := e.snapHeight
	for i := e.snapIndex + 1; i <= cutoff; i++ {
		if len(e.entryAtLocked(i).Txs) > 0 {
			h++
		}
	}
	e.snapTerm = e.termAtLocked(cutoff)
	e.log = append([]Entry(nil), e.log[cutoff-e.snapIndex:]...)
	e.snapIndex = cutoff
	e.snapHeight = h
	if b, ok := e.ctx.Chain.GetBlock(h); ok {
		e.snapRoot = b.Hash()
	}
	e.compactions.Add(1)
}

// maybeSyncLocked re-requests the canonical-chain sync while this
// replica's chain is still short of its installed snapshot, and drains
// newly synced blocks into the applied accounting once it is not.
func (e *Engine) maybeSyncLocked(now time.Time) {
	if !e.baseSet {
		return
	}
	if e.ctx.Chain.Height() >= e.appliedHeight {
		e.applyLocked()
		return
	}
	if e.leader == noVote || now.Sub(e.syncReqAt) < 2*e.opts.Heartbeat {
		return
	}
	e.syncReqAt = now
	consensus.RequestSync(e.ctx, e.leader)
}

// Handle implements consensus.Engine.
func (e *Engine) Handle(msg simnet.Message) bool {
	switch msg.Type {
	case MsgRequestVote, MsgVote, MsgAppend, MsgAppendResp, MsgSnapshot:
	case consensus.MsgSyncReq, consensus.MsgSyncResp:
		// Snapshot catch-up moves canonical blocks over the shared sync
		// protocol; any replica serves requests from its chain.
		return consensus.HandleSync(e.ctx, msg)
	default:
		return false
	}
	if msg.Corrupt {
		// Damaged messages fail authentication and are discarded — the
		// paper's "random response" Byzantine failure mode.
		return true
	}
	switch msg.Type {
	case MsgRequestVote:
		if rv, ok := msg.Payload.(*RequestVote); ok {
			e.onRequestVote(msg.From, rv)
		}
	case MsgVote:
		if v, ok := msg.Payload.(*Vote); ok {
			e.onVote(msg.From, v)
		}
	case MsgAppend:
		if ae, ok := msg.Payload.(*AppendEntries); ok {
			e.onAppend(msg.From, ae)
		}
	case MsgAppendResp:
		if r, ok := msg.Payload.(*AppendResp); ok {
			e.onAppendResp(msg.From, r)
		}
	case MsgSnapshot:
		if s, ok := msg.Payload.(*InstallSnapshot); ok {
			e.onSnapshot(msg.From, s)
		}
	}
	return true
}

func (e *Engine) onRequestVote(from simnet.NodeID, rv *RequestVote) {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := time.Now()
	if rv.Term > e.term {
		e.stepDownLocked(rv.Term, now)
	}
	// Lease soundness needs sticky voters (§9.6): a follower that heard
	// from a live leader within the election timeout refuses to elect a
	// successor, so no new leader can win while the incumbent may still
	// hold a read lease (lease ≤ ElectionTimeout/2 ≪ this window).
	sticky := !e.heardLeader.IsZero() && now.Sub(e.heardLeader) < e.opts.ElectionTimeout
	granted := rv.Term == e.term && e.role == follower && !sticky &&
		(e.votedFor == noVote || e.votedFor == from) &&
		e.upToDateLocked(rv.LastLogIndex, rv.LastLogTerm)
	if granted {
		e.votedFor = from
		e.saveMetaLocked() // the vote is a durable promise
		e.resetDeadlineLocked(now)
	}
	e.ctx.Endpoint.Send(from, MsgVote, &Vote{Term: e.term, Granted: granted})
}

func (e *Engine) onVote(from simnet.NodeID, v *Vote) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if v.Term > e.term {
		e.stepDownLocked(v.Term, time.Now())
		return
	}
	if e.role != candidate || v.Term != e.term || !v.Granted {
		return
	}
	e.votes[from] = true
	e.maybeWinLocked()
}

func (e *Engine) onAppend(from simnet.NodeID, ae *AppendEntries) {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := time.Now()
	if ae.Term < e.term {
		e.ctx.Endpoint.Send(from, MsgAppendResp, &AppendResp{Term: e.term})
		return
	}
	// Valid leader for this term (or newer): follow it.
	e.stepDownLocked(ae.Term, now)
	e.leader = from
	e.heardLeader = now

	prev, entries := ae.PrevIndex, ae.Entries
	if prev < e.snapIndex {
		// The leader starts below our snapshot: everything at or below
		// snapIndex is committed and applied here, so skip that prefix.
		skip := e.snapIndex - prev
		if uint64(len(entries)) <= skip {
			e.ctx.Endpoint.Send(from, MsgAppendResp, &AppendResp{
				Term: e.term, OK: true, Match: e.snapIndex, Echo: ae.Sent,
			})
			return
		}
		entries = entries[skip:]
		prev = e.snapIndex
	}
	last := e.lastIndexLocked()
	if prev > last || e.termAtLocked(prev) != ae.PrevTerm {
		// Log gap or conflict at PrevIndex: hint our log end so the
		// leader backs nextIndex up in one round instead of one-by-one.
		hint := last
		if prev > 0 && hint >= prev {
			hint = prev - 1
		}
		e.ctx.Endpoint.Send(from, MsgAppendResp, &AppendResp{Term: e.term, Match: hint, Echo: ae.Sent})
		return
	}
	for i := range entries {
		idx := prev + 1 + uint64(i)
		if idx <= e.lastIndexLocked() {
			if e.termAtLocked(idx) == entries[i].Term {
				continue // already stored
			}
			e.log = e.log[:idx-e.snapIndex-1] // conflict: discard our divergent tail
		}
		e.log = append(e.log, entries[i])
	}
	if ae.Commit > e.commit {
		e.commit = ae.Commit
		if max := e.lastIndexLocked(); e.commit > max {
			e.commit = max
		}
		e.applyLocked()
	}
	e.ctx.Endpoint.Send(from, MsgAppendResp, &AppendResp{
		Term: e.term, OK: true, Match: prev + uint64(len(entries)), Echo: ae.Sent,
	})
}

func (e *Engine) onAppendResp(from simnet.NodeID, r *AppendResp) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if r.Term > e.term {
		e.stepDownLocked(r.Term, time.Now())
		return
	}
	if e.role != leader || r.Term != e.term {
		return
	}
	// Any same-term response proves the follower still recognized this
	// leader when the echoed append left — the lease evidence, anchored
	// at send time so in-flight delay can never stretch the lease past
	// the follower's sticky-voter promise (monotone against reordering).
	if r.Echo > 0 {
		if at := time.Unix(0, r.Echo); at.After(e.ackAt[from]) {
			e.ackAt[from] = at
		}
	}
	if r.OK {
		if r.Match > e.match[from] {
			e.match[from] = r.Match
		}
		if e.next[from] < e.match[from]+1 {
			e.next[from] = e.match[from] + 1
		}
		if e.advanceCommitLocked() {
			// The commit advance freed proposal-window space: pick up
			// pool transactions that a burst left behind (a coalesced
			// notify proposes at most the window), then push the new
			// commit index to every follower now; otherwise both
			// would wait for the next tick.
			e.proposeLocked(time.Now())
			e.broadcastAppendsLocked(true)
		}
		// Pipeline continuation: ship the next window right away
		// instead of waiting for the tick.
		e.sendToLocked(from, false)
		return
	}
	// Rejected: back up toward the follower's hint and resend
	// immediately (fast backoff). A hint below the acknowledged match
	// means the follower lost a previously-stored log suffix in a crash
	// (entries are acknowledged before they are fsynced, so a kill can
	// take back an ack): matchIndex is only monotone for followers with
	// stable storage. Accept the regression — refusing it would floor
	// nextIndex above the follower's log end and wedge replication (and
	// with it the commit index) forever. Lowering match is always safe:
	// it can only delay commit advancement, never un-commit.
	ni := e.next[from]
	if ni == 0 {
		ni = 1
	}
	if hinted := r.Match + 1; hinted < ni {
		ni = hinted
	} else if ni > 1 {
		ni--
	}
	if ni <= e.match[from] {
		e.match[from] = ni - 1
	}
	e.next[from] = ni
	e.sendToLocked(from, false)
}

// onSnapshot installs a leader's snapshot on a follower whose log fell
// behind the leader's compacted prefix: the local log is discarded, the
// commit/applied indexes jump to the snapshot, and the canonical blocks
// up to the snapshot height are pulled from the leader over the sync
// protocol (the chain converges to the leader's byte-identical blocks;
// applying later entries waits until it has).
func (e *Engine) onSnapshot(from simnet.NodeID, s *InstallSnapshot) {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := time.Now()
	if s.Term < e.term {
		e.ctx.Endpoint.Send(from, MsgAppendResp, &AppendResp{Term: e.term})
		return
	}
	e.stepDownLocked(s.Term, now)
	e.leader = from
	e.heardLeader = now
	if s.LastIndex <= e.commit {
		// Stale offer: everything it covers is already committed here.
		// Ack only the committed prefix — committed entries are the ones
		// guaranteed to match the leader's; an uncommitted tail may
		// diverge, and over-reporting it would let the leader count
		// phantom replication toward commitment.
		e.ctx.Endpoint.Send(from, MsgAppendResp, &AppendResp{
			Term: e.term, OK: true, Match: e.commit, Echo: s.Sent,
		})
		return
	}
	e.log = nil
	e.snapIndex = s.LastIndex
	e.snapTerm = s.LastTerm
	e.snapHeight = s.Height
	e.snapRoot = s.Root
	e.commit = s.LastIndex
	e.applied = s.LastIndex
	e.appliedHeight = s.Height
	e.baseSet = true
	e.assigned = make(map[types.Hash]bool)
	e.snapsTaken.Add(1)
	e.saveMetaLocked()
	e.syncReqAt = now
	consensus.RequestSync(e.ctx, from)
	e.ctx.Endpoint.Send(from, MsgAppendResp, &AppendResp{
		Term: e.term, OK: true, Match: s.LastIndex, Echo: s.Sent,
	})
}
