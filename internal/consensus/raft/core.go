package raft

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/ledger"
	"blockbench/internal/merkle"
	"blockbench/internal/simnet"
	"blockbench/internal/trace"
	"blockbench/internal/types"
)

type role int

const (
	follower role = iota
	candidate
	leader
)

const noVote = simnet.NodeID(-1)

// metaKey is the key in the node's store holding this replica's
// durable hard state: term, vote, and the applied-index/chain-height
// baseline a restarted replica resumes from (its log tail is gone, so
// it comes back as if freshly snapshotted at the applied index and
// re-fetches anything newer from the leader — log or InstallSnapshot).
var metaKey = []byte("meta:raft:hard")

// Core is one Raft replica's protocol state and logic, and nothing
// else: no lock, no goroutine, no clock. Everything happens inside
// Step(now, msg), which sends through ctx.Endpoint, persists in
// ctx.Meta, applies through ctx.Chain and returns the next instant the
// replica needs to run. The Engine's runner supplies the time, the
// serialization and the timer; a test supplies them by hand; sharding's
// gateway contains one and steps it inside its own step. The exported
// methods, none of which locks, are its whole surface.
type Core struct {
	ctx   consensus.Context
	opts  Options
	lease time.Duration
	peers []simnet.NodeID // sorted, including self

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
	// Where the replica stopped applying (0: nowhere; see ApplyMismatch).
	mismatchIndex  uint64
	mismatchHeight uint64

	votes        map[simnet.NodeID]bool
	next         map[simnet.NodeID]uint64
	match        map[simnet.NodeID]uint64
	ackAt        map[simnet.NodeID]time.Time // last AppendResp per follower (lease)
	snapSentAt   map[simnet.NodeID]time.Time // InstallSnapshot throttle
	assigned     map[types.Hash]bool         // txs already batched (leader)
	rng          *rand.Rand
	heardLeader  time.Time // last append/snapshot from a live leader
	deadline     time.Time // election deadline (follower/candidate)
	hbDue        time.Time // next heartbeat round (leader)
	lastProposal time.Time
	batchDue     time.Time // when a withheld partial batch becomes due
	syncReqAt    time.Time // last chain-sync request (snapshot catch-up)
	retryAt      time.Time // next poll of a stalled apply (non-leader)

	elections       uint64
	leaderWins      uint64
	batchesDone     uint64
	leaseReads      uint64
	readRedirect    uint64
	compactions     uint64
	snapsSent       uint64
	snapsTaken      uint64 // snapshots installed (follower side)
	applyMismatches uint64
	metaFailures    uint64 // hard-state writes the store refused, records it could not give back

	// Scratch: saveMeta's record, which the store copies, and propose's
	// pick, copied only into a log entry.
	meta [5*8 + 1]byte
	pick []*types.Transaction
}

// NewCore builds a replica that has no runner.
func NewCore(ctx consensus.Context, opts Options, now time.Time) *Core {
	// The lease must expire before any successor can be elected: cap it
	// at half the election-timeout floor (one shared clock here, so no
	// drift margin beyond that).
	lease := min(opts.Heartbeat*leaseFactor, opts.ElectionTimeout/2)
	peers := slices.Clone(ctx.Peers)
	slices.Sort(peers)
	c := &Core{
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
	}
	c.restoreMeta()
	c.resetDeadline(now)
	return c
}

// step advances the replica to now on one event: consensus.Wake (the
// timer or a pool admission) or a delivered message. Corrupted messages
// (the paper's "random response" failure mode) fail authentication and
// are dropped, and so is whatever is not Raft's. It returns the next
// instant the replica needs a Wake.
func (c *Core) Step(now time.Time, msg simnet.Message) time.Time {
	if consensus.HandleSync(c.ctx, msg) {
		// Snapshot catch-up moves canonical blocks over the shared sync
		// protocol; any replica serves requests from its chain, and a
		// response may be what a stalled apply was waiting for.
		c.maybeSync(now)
	} else if !msg.Corrupt {
		switch m := msg.Payload.(type) {
		case nil: // consensus.Wake
			c.wake(now)
		case *RequestVote:
			c.onRequestVote(now, msg.From, m)
		case *Vote:
			c.onVote(now, msg.From, m)
		case *AppendEntries:
			c.onAppend(now, msg.From, m)
		case *AppendResp:
			c.onAppendResp(now, msg.From, m)
		case *InstallSnapshot:
			c.onSnapshot(now, msg.From, m)
		}
	}
	return c.nextWake()
}

// wake is the timer/admission event. A leader proposes what the pool
// holds and, once per Heartbeat, sends every follower at least an empty
// AppendEntries; anyone else starts an election at the deadline and
// polls an apply that is waiting on the chain.
func (c *Core) wake(now time.Time) {
	if c.role != leader {
		if !now.Before(c.deadline) {
			c.startElection(now)
		}
		c.maybeSync(now)
		c.retryAt = now.Add(c.opts.Heartbeat)
		return
	}
	heartbeat := !now.Before(c.hbDue)
	if heartbeat {
		// Drift-free cadence, unless the replica fell a whole round behind.
		if c.hbDue = c.hbDue.Add(c.opts.Heartbeat); !c.hbDue.After(now) {
			c.hbDue = now.Add(c.opts.Heartbeat)
		}
	}
	// Propose-time replication: commit latency is bounded by round trips,
	// not by the heartbeat.
	if c.propose(now) || heartbeat {
		c.broadcastAppends(now, heartbeat)
	}
	c.advanceCommit() // single-node clusters commit inline
}

// nextWake is the earliest instant the replica has something to do
// without being sent a message: the next heartbeat or a withheld partial
// batch coming due (leader); the election deadline or, while committed
// entries wait on the chain (a snapshot sync in flight, a failed
// append), the next poll of it (anyone else).
func (c *Core) nextWake() time.Time {
	if c.role == leader {
		if !c.batchDue.IsZero() && c.batchDue.Before(c.hbDue) {
			return c.batchDue
		}
		return c.hbDue
	}
	stalled := c.mismatchIndex == 0 &&
		(c.applied < c.commit || c.baseSet && c.ctx.Chain.Height() < c.appliedHeight)
	if stalled && c.retryAt.Before(c.deadline) {
		return c.retryAt
	}
	return c.deadline
}

// restoreMeta reloads durable hard state after a process kill. The
// uncommitted log tail did not survive, so the replica resumes as if
// snapshotted exactly at its applied index: commit == applied ==
// snapIndex, with the chain-height baseline recorded at save time.
// Entries past that point are re-fetched from the current leader —
// through ordinary AppendEntries if they are still resident, or
// through InstallSnapshot plus a chain sync if the leader has
// compacted past us.
func (c *Core) restoreMeta() {
	if c.ctx.Meta == nil {
		return
	}
	buf, ok, err := c.ctx.Meta.Get(metaKey)
	if err != nil {
		c.metaFailures++ // unreadable: start clean
	}
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
		c.metaFailures++ // torn meta record: start clean
		return
	}
	c.term = term
	c.votedFor = voted
	if base {
		var root types.Hash
		if b, ok := c.ctx.Chain.GetBlock(height); ok {
			root = b.Hash()
		}
		c.rebase(applied, appliedTerm, height, root)
	}
}

// rebase makes the replica exactly a snapshot: an empty log behind
// (index, term), committed and applied there, at chain (height, root).
func (c *Core) rebase(index, term, height uint64, root types.Hash) {
	c.log = nil
	c.snapIndex, c.snapTerm, c.snapHeight, c.snapRoot = index, term, height, root
	c.commit, c.applied, c.appliedHeight, c.baseSet = index, index, height, true
}

// saveMeta records the hard state in the node's store whenever term,
// vote or the applied baseline changes, and returns the store's error,
// counted in raft.meta_failures. A nil store persists nothing. A vote
// and a candidacy wait for their write (onRequestVote, startElection);
// the other sites go on, as DESIGN.md § Consensus seam argues.
func (c *Core) saveMeta() error {
	if c.ctx.Meta == nil {
		return nil
	}
	var base byte
	if c.baseSet {
		base = 1
	}
	le := binary.LittleEndian
	buf := le.AppendUint64(c.meta[:0], c.term)
	buf = le.AppendUint64(buf, uint64(int64(c.votedFor)))
	buf = append(buf, base)
	buf = le.AppendUint64(buf, c.applied)
	buf = le.AppendUint64(buf, c.termAt(c.applied))
	buf = le.AppendUint64(buf, c.appliedHeight)
	err := c.ctx.Meta.Put(metaKey, buf)
	if err != nil {
		c.metaFailures++
	}
	return err
}

func (c *Core) majority() int { return len(c.peers)/2 + 1 }

// IsLeader reports whether this replica currently leads.
func (c *Core) IsLeader() bool { return c.role == leader }

// LeaseRead classifies one client read on this replica and counts it
// (raft.lease_reads vs raft.read_redirects): true means it is the leader
// and a majority (self included) has acknowledged it within the lease,
// Heartbeat×leaseFactor, so the local answer is linearizable without a
// log round-trip; false means the read would have to redirect to the leader.
func (c *Core) LeaseRead(now time.Time) bool {
	cnt := 0
	if c.role == leader {
		cnt = 1 // self
		for _, p := range c.peers {
			if at, ok := c.ackAt[p]; ok && p != c.ctx.Self && now.Sub(at) <= c.lease {
				cnt++
			}
		}
	}
	if cnt < c.majority() {
		c.readRedirect++
		return false
	}
	c.leaseReads++
	return true
}

// ApplyMismatch locates the first committed entry whose block this
// replica found already on its chain holding other transactions — the
// point where chain and log diverged and the replica stopped applying
// (ok=false: none). Counted as raft.apply_mismatches.
func (c *Core) ApplyMismatch() (index, height uint64, ok bool) {
	return c.mismatchIndex, c.mismatchHeight, c.mismatchIndex != 0
}

// Counters implements metrics.CounterProvider.
func (c *Core) Counters() map[string]uint64 {
	return map[string]uint64{
		"raft.elections":         c.elections,
		"raft.leader_wins":       c.leaderWins,
		"raft.batches":           c.batchesDone,
		"raft.lease_reads":       c.leaseReads,
		"raft.read_redirects":    c.readRedirect,
		"raft.compactions":       c.compactions,
		"raft.snapshots_sent":    c.snapsSent,
		"raft.snapshot_installs": c.snapsTaken,
		"raft.apply_mismatches":  c.applyMismatches,
		"raft.meta_failures":     c.metaFailures,
	}
}

func (c *Core) resetDeadline(now time.Time) {
	jitter := time.Duration(c.rng.Int63n(int64(c.opts.ElectionTimeout)))
	c.deadline = now.Add(c.opts.ElectionTimeout + jitter)
}

// lastIndex returns the index of the last log entry (snapshot
// included).
func (c *Core) lastIndex() uint64 { return c.snapIndex + uint64(len(c.log)) }

// termAt returns the term of the log entry at index (snapTerm for the
// snapshot boundary and the compacted prefix, 0 past the end).
func (c *Core) termAt(index uint64) uint64 {
	if index <= c.snapIndex {
		return c.snapTerm
	}
	if index > c.lastIndex() {
		return 0
	}
	return c.log[index-c.snapIndex-1].Term
}

func (c *Core) entryAt(index uint64) *Entry {
	return &c.log[index-c.snapIndex-1]
}

// startElection begins a candidacy for term+1.
func (c *Core) startElection(now time.Time) {
	c.term++
	c.role = candidate
	c.leader = noVote
	c.votedFor = c.ctx.Self
	c.votes = map[simnet.NodeID]bool{c.ctx.Self: true}
	c.elections++
	c.resetDeadline(now)
	if c.saveMeta() != nil {
		return // term++/self-vote are not durable: solicit nothing, retry at the deadline
	}
	last := c.lastIndex()
	rv := &RequestVote{Term: c.term, LastLogIndex: last, LastLogTerm: c.termAt(last)}
	c.ctx.Endpoint.Broadcast(MsgRequestVote, rv)
	c.maybeWin(now) // single-node clusters win on their own vote
}

// upToDate implements the Raft voting restriction: grant only to
// candidates whose log is at least as complete as ours, which keeps
// committed entries from being lost across leader changes.
func (c *Core) upToDate(lastIndex, lastTerm uint64) bool {
	myLast := c.lastIndex()
	myTerm := c.termAt(myLast)
	if lastTerm != myTerm {
		return lastTerm > myTerm
	}
	return lastIndex >= myLast
}

// stepDown returns to follower state, adopting a newer term.
func (c *Core) stepDown(term uint64, now time.Time) {
	if term > c.term {
		c.term = term
		c.votedFor = noVote
		c.saveMeta() // adopted term must survive a crash
	}
	c.role = follower
	c.votes = nil
	c.batchDue = time.Time{}
	clear(c.assigned)
	c.resetDeadline(now)
}

// maybeWin promotes a candidate holding a majority of votes.
func (c *Core) maybeWin(now time.Time) {
	if c.role != candidate || len(c.votes) < c.majority() {
		return
	}
	c.role = leader
	c.leader = c.ctx.Self
	c.leaderWins++
	c.next = make(map[simnet.NodeID]uint64, len(c.peers))
	c.match = make(map[simnet.NodeID]uint64, len(c.peers))
	c.ackAt = make(map[simnet.NodeID]time.Time, len(c.peers))
	last := c.lastIndex()
	for _, p := range c.peers {
		c.next[p] = last + 1
	}
	// Re-mark transactions sitting in unapplied entries so the new
	// leader does not batch them twice while the barrier below commits.
	c.assigned = make(map[types.Hash]bool)
	for i := c.applied + 1; i <= last; i++ {
		for _, tx := range c.entryAt(i).Txs {
			c.assigned[tx.Hash()] = true
		}
	}
	// A leader may only count replicas toward commitment for entries of
	// its own term (§5.4.2), so append a no-op barrier to flush any
	// uncommitted entries inherited from prior terms.
	if last > c.commit {
		c.log = append(c.log, Entry{Term: c.term})
	}
	c.lastProposal = time.Time{}
	c.hbDue = now.Add(c.opts.Heartbeat)
	c.broadcastAppends(now, true)
	c.advanceCommit()
}

// propose appends new log entries from the pool: full batches
// immediately, partial batches once BatchTimeout has passed (Fabric-
// style size/timeout batching, which Quorum's geth lineage shares). A
// withheld partial batch records its due time in batchDue, which
// nextWake turns into a wake-up at that instant instead of quantizing
// the timeout up to the next heartbeat. Reports whether anything was
// appended.
func (c *Core) propose(now time.Time) bool {
	c.batchDue = time.Time{}
	appended := false
	for rounds := 0; rounds < 8; rounds++ {
		if c.lastIndex()-c.commit >= window {
			break
		}
		c.pick = consensus.PickBatch(c.pick[:0], c.ctx.Pool, c.opts.BatchSize, c.assigned)
		txs := c.pick
		if len(txs) == 0 {
			break
		}
		if len(txs) < c.opts.BatchSize && !c.lastProposal.IsZero() {
			if due := c.lastProposal.Add(c.opts.BatchTimeout); now.Before(due) {
				// Wait for a fuller batch; the wake-up at due (or the
				// next pool notification) retries.
				c.batchDue = due
				break
			}
		}
		for _, tx := range txs {
			c.assigned[tx.Hash()] = true
			c.ctx.Tracer.Stamp(tx.Hash(), trace.StagePropose)
		}
		c.log = append(c.log, Entry{Term: c.term, Txs: slices.Clone(txs)})
		c.lastProposal = now
		appended = true
	}
	return appended
}

// broadcastAppends replicates to every follower. With heartbeat set,
// followers with nothing outstanding still receive an empty
// AppendEntries carrying the commit index (and refreshing the lease).
func (c *Core) broadcastAppends(now time.Time, heartbeat bool) {
	for _, p := range c.peers {
		if p != c.ctx.Self {
			c.sendTo(now, p, heartbeat)
		}
	}
}

// sendTo ships the follower's next window(s). Pipelined: nextIndex
// advances optimistically as messages go out, running ahead of the
// acknowledged matchIndex by up to window entries in maxAppend-sized
// messages, so a burst streams without waiting for per-message acks.
// Followers behind the compacted prefix get an InstallSnapshot instead.
func (c *Core) sendTo(now time.Time, p simnet.NodeID, heartbeat bool) {
	ni := max(c.next[p], 1)
	if ni <= c.snapIndex {
		c.sendSnapshot(now, p)
		return
	}
	last := c.lastIndex()
	sent := false
	for ni <= last && ni-1-c.match[p] < window {
		end := min(ni-1+maxAppend, last)
		// Copy: the payload crosses goroutines by reference and our log
		// tail may later be truncated by a successor leader.
		c.sendAppend(now, p, ni, append([]Entry(nil), c.log[ni-c.snapIndex-1:end-c.snapIndex]...))
		ni = end + 1
		sent = true
	}
	c.next[p] = ni
	if !sent && heartbeat {
		c.sendAppend(now, p, ni, nil)
	}
}

func (c *Core) sendAppend(now time.Time, p simnet.NodeID, ni uint64, entries []Entry) {
	c.ctx.Endpoint.Send(p, MsgAppend, &AppendEntries{
		Term:      c.term,
		PrevIndex: ni - 1,
		PrevTerm:  c.termAt(ni - 1),
		Entries:   entries,
		Commit:    c.commit,
		Sent:      now.UnixNano(),
	})
}

// sendSnapshot offers the local snapshot to a follower whose next index
// fell behind the compacted prefix, throttled per follower to one offer
// per heartbeat interval.
func (c *Core) sendSnapshot(now time.Time, p simnet.NodeID) {
	if at, ok := c.snapSentAt[p]; ok && now.Sub(at) < c.opts.Heartbeat {
		return
	}
	c.snapSentAt[p] = now
	c.snapsSent++
	c.ctx.Endpoint.Send(p, MsgSnapshot, &InstallSnapshot{
		Term:      c.term,
		LastIndex: c.snapIndex,
		LastTerm:  c.snapTerm,
		Height:    c.snapHeight,
		Root:      c.snapRoot,
		Sent:      now.UnixNano(),
	})
}

// advanceCommit moves the commit index to the highest entry of the
// current term stored by a majority, then applies. It reports whether
// the commit index moved, so the caller can propagate it to followers
// without waiting for the next heartbeat.
func (c *Core) advanceCommit() bool {
	advanced := false
	if c.role == leader {
		for n := c.lastIndex(); n > c.commit; n-- {
			if c.termAt(n) != c.term {
				break // older terms commit transitively (§5.4.2)
			}
			cnt := 1 // self
			for _, p := range c.peers {
				if p != c.ctx.Self && c.match[p] >= n {
					cnt++
				}
			}
			if cnt >= c.majority() {
				advanced = n > c.commit
				c.commit = n
				break
			}
		}
	}
	c.apply()
	return advanced
}

// apply executes committed entries in log order, appending one block
// per non-empty batch. Every replica builds byte-identical blocks
// (deterministic header, no proposer), exactly like the PBFT preset. A
// replica that installed a snapshot holds off until the chain sync has
// delivered the snapshot's blocks; blocks already on the chain past
// that point (synced, or reloaded from the journal after a restart) are
// recognized by height, checked against the entry and skipped instead
// of rebuilt. Applied prefixes past the retention window are compacted.
func (c *Core) apply() {
	if c.mismatchIndex != 0 {
		return
	}
	if !c.baseSet {
		// Baseline: the chain height the log's first entry builds on
		// (preloaded history stays outside the log's accounting).
		c.appliedHeight = c.ctx.Chain.Height()
		c.snapHeight = c.appliedHeight
		c.baseSet = true
	}
	before := c.applied
	for c.applied < c.commit && c.applyNext() {
	}
	if c.applied != before {
		// The meta write lands after the blocks it accounts for, so a
		// crash between the two leaves meta.Height at most the chain
		// height — restore absorbs the gap via the skip-account path.
		c.saveMeta()
		c.maybeCompact()
	}
}

// applyNext applies entry applied+1, reporting false if it has to wait:
// for the chain sync, for a failed append's retry, or — forever — at a
// mismatch.
func (c *Core) applyNext() bool {
	if c.ctx.Chain.Height() < c.appliedHeight {
		return false // chain sync toward the snapshot still in flight
	}
	en := c.entryAt(c.applied + 1)
	if len(en.Txs) == 0 {
		c.applied++
		return true
	}
	target := c.appliedHeight + 1
	if c.ctx.Chain.Height() >= target {
		// Already on the chain: account for it without rebuilding — if
		// it is this entry's block. A different block there means this
		// replica's chain and the group's log have diverged; stop at the
		// first wrong block rather than keep counting heights over it.
		if b, ok := c.ctx.Chain.GetBlock(target); !ok || b.Header.TxRoot != merkle.TxRoot(en.Txs) {
			c.mismatchIndex, c.mismatchHeight = c.applied+1, target
			c.applyMismatches++
			return false
		}
	} else {
		// Every replica builds the same header: the height as the time.
		block, err := c.ctx.Chain.Build(en.Txs, ledger.Meta{Time: int64(target), View: en.Term})
		if err != nil || c.ctx.Chain.Append(block) != nil {
			return false // retried on the next wake-up
		}
	}
	c.applied++
	c.appliedHeight = target
	for _, tx := range en.Txs {
		delete(c.assigned, tx.Hash())
	}
	c.batchesDone++
	return true
}

// maybeCompact truncates the applied log prefix behind a snapshot
// record once it outgrows the retention window, keeping at least
// Retain/2 applied entries resident so nearby followers still catch up
// from the log (amortizing the copy to O(1) per applied entry). The
// snapshot records the chain height and block hash at the cutoff; a
// follower further behind than the resident prefix is caught up with
// InstallSnapshot plus a chain sync.
func (c *Core) maybeCompact() {
	retain := uint64(c.opts.Retain)
	if retain == 0 || c.applied-c.snapIndex <= retain {
		return
	}
	cutoff := c.applied - max(retain/2, 1)
	// Walk the dropped prefix to advance the snapshot's chain height
	// (empty barrier entries produce no block).
	h := c.snapHeight
	for i := c.snapIndex + 1; i <= cutoff; i++ {
		if len(c.entryAt(i).Txs) > 0 {
			h++
		}
	}
	c.snapTerm = c.termAt(cutoff)
	c.log = append([]Entry(nil), c.log[cutoff-c.snapIndex:]...)
	c.snapIndex = cutoff
	c.snapHeight = h
	if b, ok := c.ctx.Chain.GetBlock(h); ok {
		c.snapRoot = b.Hash()
	}
	c.compactions++
}

// maybeSync re-requests the canonical-chain sync while this replica's
// chain is still short of its installed snapshot, and drains newly
// synced blocks into the applied accounting once it is not.
func (c *Core) maybeSync(now time.Time) {
	if !c.baseSet {
		return
	}
	if c.ctx.Chain.Height() >= c.appliedHeight {
		c.apply()
		return
	}
	if c.leader == noVote || now.Sub(c.syncReqAt) < 2*c.opts.Heartbeat {
		return
	}
	c.syncReqAt = now
	consensus.RequestSync(c.ctx, c.leader)
}

func (c *Core) onRequestVote(now time.Time, from simnet.NodeID, rv *RequestVote) {
	if rv.Term > c.term {
		c.stepDown(rv.Term, now)
	}
	// Lease soundness needs sticky voters (§9.6): a follower that heard
	// from a live leader within the election timeout refuses to elect a
	// successor, so no new leader can win while the incumbent may still
	// hold a read lease (lease ≤ ElectionTimeout/2 ≪ this window).
	sticky := !c.heardLeader.IsZero() && now.Sub(c.heardLeader) < c.opts.ElectionTimeout
	granted := rv.Term == c.term && c.role == follower && !sticky &&
		(c.votedFor == noVote || c.votedFor == from) &&
		c.upToDate(rv.LastLogIndex, rv.LastLogTerm)
	if granted {
		// The vote is a durable promise: one the store did not take is not
		// made (votedFor stays from, which only refuses other candidates).
		c.votedFor = from
		if granted = c.saveMeta() == nil; granted {
			c.resetDeadline(now)
		}
	}
	c.ctx.Endpoint.Send(from, MsgVote, &Vote{Term: c.term, Granted: granted})
}

func (c *Core) onVote(now time.Time, from simnet.NodeID, v *Vote) {
	if v.Term > c.term {
		c.stepDown(v.Term, now)
		return
	}
	if c.role != candidate || v.Term != c.term || !v.Granted {
		return
	}
	c.votes[from] = true
	c.maybeWin(now)
}

// ack answers an AppendEntries or InstallSnapshot (see AppendResp).
func (c *Core) ack(to simnet.NodeID, ok bool, match uint64, echo int64) {
	c.ctx.Endpoint.Send(to, MsgAppendResp, &AppendResp{Term: c.term, OK: ok, Match: match, Echo: echo})
}

func (c *Core) onAppend(now time.Time, from simnet.NodeID, ae *AppendEntries) {
	if ae.Term < c.term {
		c.ack(from, false, 0, 0)
		return
	}
	// Valid leader for this term (or newer): follow it.
	c.stepDown(ae.Term, now)
	c.leader = from
	c.heardLeader = now

	prev, entries := ae.PrevIndex, ae.Entries
	if prev < c.snapIndex {
		// The leader starts below our snapshot: everything at or below
		// snapIndex is committed and applied here, so skip that prefix.
		skip := c.snapIndex - prev
		if uint64(len(entries)) <= skip {
			c.ack(from, true, c.snapIndex, ae.Sent)
			return
		}
		entries = entries[skip:]
		prev = c.snapIndex
	}
	last := c.lastIndex()
	if prev > last || c.termAt(prev) != ae.PrevTerm {
		// Log gap or conflict at PrevIndex: hint our log end so the
		// leader backs nextIndex up in one round instead of one-by-one.
		hint := last
		if prev > 0 && hint >= prev {
			hint = prev - 1
		}
		c.ack(from, false, hint, ae.Sent)
		return
	}
	for i := range entries {
		idx := prev + 1 + uint64(i)
		if idx <= c.lastIndex() {
			if c.termAt(idx) == entries[i].Term {
				continue // already stored
			}
			c.log = c.log[:idx-c.snapIndex-1] // conflict: discard our divergent tail
		}
		c.log = append(c.log, entries[i])
	}
	if ae.Commit > c.commit {
		c.commit = min(ae.Commit, c.lastIndex())
		c.apply()
	}
	c.ack(from, true, prev+uint64(len(entries)), ae.Sent)
}

func (c *Core) onAppendResp(now time.Time, from simnet.NodeID, r *AppendResp) {
	if r.Term > c.term {
		c.stepDown(r.Term, now)
		return
	}
	if c.role != leader || r.Term != c.term {
		return
	}
	// Any same-term response proves the follower still recognized this
	// leader when the echoed append left — the lease evidence, anchored
	// at send time so in-flight delay can never stretch the lease past
	// the follower's sticky-voter promise (monotone against reordering).
	if r.Echo > 0 {
		if at := time.Unix(0, r.Echo); at.After(c.ackAt[from]) {
			c.ackAt[from] = at
		}
	}
	if r.OK {
		if r.Match > c.match[from] {
			c.match[from] = r.Match
		}
		if c.next[from] < c.match[from]+1 {
			c.next[from] = c.match[from] + 1
		}
		if c.advanceCommit() {
			// The commit advance freed proposal-window space: pick up
			// pool transactions that a burst left behind (a coalesced
			// notify proposes at most the window), then push the new
			// commit index to every follower now; otherwise both
			// would wait for the next heartbeat.
			c.propose(now)
			c.broadcastAppends(now, true)
		}
		// Pipeline continuation: ship the next window right away
		// instead of waiting for the heartbeat.
		c.sendTo(now, from, false)
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
	ni := max(c.next[from], 1)
	if hinted := r.Match + 1; hinted < ni {
		ni = hinted
	} else if ni > 1 {
		ni--
	}
	if ni <= c.match[from] {
		c.match[from] = ni - 1
	}
	c.next[from] = ni
	c.sendTo(now, from, false)
}

// onSnapshot installs a leader's snapshot on a follower whose log fell
// behind the leader's compacted prefix: the local log is discarded, the
// commit/applied indexes jump to the snapshot, and the canonical blocks
// up to the snapshot height are pulled from the leader over the sync
// protocol (the chain converges to the leader's byte-identical blocks;
// applying later entries waits until it has).
func (c *Core) onSnapshot(now time.Time, from simnet.NodeID, s *InstallSnapshot) {
	if s.Term < c.term {
		c.ack(from, false, 0, 0)
		return
	}
	c.stepDown(s.Term, now)
	c.leader = from
	c.heardLeader = now
	if s.LastIndex <= c.commit {
		// Stale offer: everything it covers is already committed here.
		// Ack only the committed prefix — committed entries are the ones
		// guaranteed to match the leader's; an uncommitted tail may
		// diverge, and over-reporting it would let the leader count
		// phantom replication toward commitment.
		c.ack(from, true, c.commit, s.Sent)
		return
	}
	c.rebase(s.LastIndex, s.LastTerm, s.Height, s.Root)
	c.snapsTaken++
	c.saveMeta()
	c.syncReqAt = now
	consensus.RequestSync(c.ctx, from)
	c.ack(from, true, s.LastIndex, s.Sent)
}
