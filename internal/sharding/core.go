package sharding

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/consensus/raft"
	"blockbench/internal/simnet"
	"blockbench/internal/txpool"
	"blockbench/internal/types"
)

// The gateway's and the 2PC protocol's fixed parameters: each has one
// value in use, so none is an option.
const (
	// forwardInterval is the least time between two forward flushes: an
	// idle gateway forwards an accepted single-shard transaction at once,
	// a busy one ships what the interval gathered in key-affinity batches.
	forwardInterval = 2 * time.Millisecond
	// prepareTimeout bounds phase one: a shard that has not voted by
	// then (crashed leader, election in progress) counts as a refusal.
	prepareTimeout = 100 * time.Millisecond
	// retryBackoff is the base delay before re-preparing an aborted
	// transaction. The actual wait grows linearly with the attempt
	// number plus a uniform jitter of one base unit, so coordinators
	// contending for the same locks desynchronize instead of colliding
	// on every round.
	retryBackoff = 10 * time.Millisecond
	// maxAttempts bounds abort-retry; beyond it the transaction is
	// abandoned and counted in xshard.aborts.
	maxAttempts = 16
	// lockTTL expires prepare locks whose coordinator went silent.
	lockTTL = time.Second
	// outboundLimit bounds the gateway's forward queue.
	outboundLimit = 1 << 16
	// maxCoordinations bounds the cross-shard transactions one gateway
	// coordinates concurrently; beyond it SubmitTx reports busy — the
	// same admission control the fast path gets from outboundLimit, so
	// an open-loop flood cannot pile up unbounded 2PC state and
	// prepare-retry storms.
	maxCoordinations = 1024
	// noticeRetain is how long followers keep applied notice entries
	// before presuming the leader delivered them.
	noticeRetain = 5 * time.Second
)

// lockEntry is one held prepare lock. Locks are soft state at the
// shard's current leader: they serialize conflicting cross-shard
// transactions, and expire (or vanish with a crashed leader) without
// affecting safety — actual state changes only happen through the
// shard's ordered commit path.
type lockEntry struct {
	owner   types.Hash
	expires time.Time
}

// coordState tracks one cross-shard transaction at its coordinating
// gateway.
type coordState struct {
	tx      *types.Transaction
	shards  []int
	attempt int
	votes   []int     // shards that voted yes in this attempt
	backoff bool      // between attempts: due is the re-prepare time
	due     time.Time // else it is the phase-one deadline
}

// noticeRec is one commit notice a shard member owes a remote gateway
// for a transaction it has seen applied. Only the group's current
// leader sends (one notice per transaction per shard, not one per
// member); followers keep the record for noticeRetain as leader-failover
// cover, then assume the leader delivered and drop it.
type noticeRec struct {
	id      types.Hash
	origin  simnet.NodeID
	applied time.Time
}

// core is one node's whole sharded stack — its shard group's consensus
// replica, the gateway router for client submissions and the 2PC
// coordinator and participant roles — behind one step, like the consensus
// cores (DESIGN.md § Consensus seam): no lock, no clock, no goroutine. It
// steps the replica itself, so one runner serializes and times both.
type core struct {
	ctx     consensus.Context
	part    HashPartitioner
	groups  [][]simnet.NodeID
	shard   int // this node's shard group
	replica *raft.Core

	// outbound holds accepted single-shard transactions awaiting a flush.
	// SubmitTx adds to it (it has its own lock) without entering the core.
	outbound *txpool.Pool
	flushAt  time.Time // earliest next flush

	coord    map[types.Hash]*coordState   // cross-shard txs this node coordinates
	coordDue time.Time                    // no coordination is due before this (zero: none)
	locks    map[string]lockEntry         // participant lock table (shard leader)
	txLocks  map[types.Hash][]string      // reverse index for release
	sweepAt  time.Time                    // no lock expires before this (zero: none held)
	awaiting map[types.Hash][]int         // foreign shards whose commit notices are pending
	notice   map[types.Hash]simnet.NodeID // admitted, not yet applied: tx -> gateway to notify
	owed     []noticeRec                  // applied, in apply order
	remoteQ  []types.Hash                 // commits ready to surface via BlocksFrom
	remote   map[types.Hash]struct{}      // every foreign commit surfaced (Receipt)
	scanned  uint64                       // chain height scanned for owed notices
	rng      *rand.Rand                   // retry-backoff jitter

	// poke: step the replica before this event ends — its pool admitted
	// something (its own runner would have heard Notify) or its wake is due.
	poke        bool
	replicaWake time.Time // what the replica's last step asked for

	fastpath uint64 // single-shard txs forwarded (2PC bypassed)
	xTxs     uint64 // cross-shard txs coordinated
	xCommits uint64 // cross-shard txs committed
	xAborts  uint64 // cross-shard txs abandoned after maxAttempts
	xRetries uint64 // abort-retry rounds
}

// newCore builds the stack for one node. The shard groups are computed
// from ctx.Peers, keys are hash-placed over exactly those groups, and the
// node's own group runs a Raft replica whose peer set is just that group.
func newCore(ctx consensus.Context, opts Options, now time.Time) *core {
	groups := Groups(ctx.Peers, opts.Shards)
	shard := GroupOf(groups, ctx.Self)
	if shard < 0 {
		panic(fmt.Sprintf("sharding: node %v not in any group", ctx.Self))
	}
	innerCtx := ctx
	innerCtx.Peers = groups[shard]
	ropts := opts.Raft
	ropts.Seed = opts.Seed
	// The gateway's outbound queue is the admission point for traffic a
	// gateway accepts on behalf of other shards, so it stamps the same
	// lifecycle stages as a node's own pool.
	outbound := txpool.New(outboundLimit)
	outbound.SetTracer(ctx.Tracer)
	return &core{
		ctx:      ctx,
		part:     NewHashPartitioner(len(groups)),
		groups:   groups,
		shard:    shard,
		replica:  raft.NewCore(innerCtx, ropts, now),
		outbound: outbound,
		coord:    make(map[types.Hash]*coordState),
		locks:    make(map[string]lockEntry),
		txLocks:  make(map[types.Hash][]string),
		awaiting: make(map[types.Hash][]int),
		notice:   make(map[types.Hash]simnet.NodeID),
		remote:   make(map[types.Hash]struct{}),
		rng:      rand.New(rand.NewSource(opts.Seed*6151 + int64(ctx.Self)*92821 + 3)),
		flushAt:  now,
	}
}

// earliest returns the sooner of two instants, zero meaning none.
func earliest(a, b time.Time) time.Time {
	if a.IsZero() || !b.IsZero() && b.Before(a) {
		return b
	}
	return a
}

// step advances the node to now on one event. consensus.Wake (the timer,
// or the outbound queue admitted something) runs the gateway's clockwork
// and, if due, the replica's; a sharding protocol message is processed
// here; anything else is the replica's if a member of this group sent it.
// Consensus is per group: other groups' traffic (broadcast elections
// reach everyone) must not leak into ours, the snapshot-install chain
// sync included — every group keeps its own canonical chain.
func (c *core) step(now time.Time, msg simnet.Message) time.Time {
	if msg.Corrupt {
		return c.settle(now) // failed authentication, as elsewhere
	}
	switch m := msg.Payload.(type) {
	case nil: // consensus.Wake
		if c.outbound.Len() > 0 && !now.Before(c.flushAt) {
			c.flushForwards()
			c.flushAt = now.Add(forwardInterval)
		}
		c.tickCoord(now)
		c.sweepLocks(now)
		c.poke = c.poke || !now.Before(c.replicaWake)
	case *ForwardBatch:
		if m.Shard == c.shard {
			for _, tx := range m.Txs {
				c.acceptShardTx(tx, m.Origin)
			}
		}
	case *Prepare:
		if v := c.prepare(now, m); v != nil {
			c.ctx.Endpoint.Send(m.Origin, MsgVote, v)
		}
	case *Vote:
		c.onVote(now, m)
	case *Decision:
		c.applyDecision(m)
	case *CommitNotice:
		c.onNotice(m)
	default:
		if slices.Contains(c.groups[c.shard], msg.From) {
			c.stepReplica(now, msg)
		}
	}
	return c.settle(now)
}

// settle ends an event: the replica is stepped if the event asked for
// it, and the node's next wake-up is the earliest instant it has something
// to do unasked — the replica's own wake, the next coordination deadline
// or retry, the next lock expiry and, only while the outbound queue holds
// something, the next permitted flush. An idle gateway sleeps as long as
// its replica does.
func (c *core) settle(now time.Time) time.Time {
	if c.poke {
		c.poke = false
		c.stepReplica(now, consensus.Wake)
	}
	wake := earliest(earliest(c.replicaWake, c.coordDue), c.sweepAt)
	if c.outbound.Len() > 0 {
		wake = earliest(wake, c.flushAt)
	}
	return wake
}

// stepReplica steps the shard group's replica, then settles the commit
// notices this member owes: transactions the step applied move from
// notice to owed; the group's leader sends what is owed (a leader that
// dies between apply and notice is succeeded by a member that still holds
// the record, and sends it in the step that wins the election), anyone
// else drops records older than noticeRetain.
func (c *core) stepReplica(now time.Time, msg simnet.Message) {
	c.replicaWake = c.replica.Step(now, msg)
	if len(c.notice) == 0 {
		c.scanned = c.ctx.Chain.Height()
	} else if c.ctx.Chain.Height() > c.scanned {
		for _, b := range c.ctx.Chain.BlocksFrom(c.scanned, 0) {
			for _, tx := range b.Txs {
				id := tx.Hash()
				if origin, owed := c.notice[id]; owed {
					delete(c.notice, id)
					c.owed = append(c.owed, noticeRec{id: id, origin: origin, applied: now})
				}
			}
			c.scanned = b.Number()
		}
	}
	leader, settled := c.replica.IsLeader(), 0
	for _, rec := range c.owed {
		if leader {
			c.ctx.Endpoint.Send(rec.origin, MsgNotice, &CommitNotice{TxID: rec.id, Shard: c.shard})
		} else if now.Sub(rec.applied) <= noticeRetain {
			break
		}
		settled++
	}
	c.owed = c.owed[settled:]
}

// submit opens a two-phase commit with this node as coordinator. It is
// an event like step's, entered by the engine; settle ends it.
func (c *core) submit(now time.Time, tx *types.Transaction, shards []int) error {
	id := tx.Hash()
	_, dup := c.coord[id]
	_, done := c.remote[id]
	switch {
	case dup || done:
		return nil
	case len(c.coord) >= maxCoordinations:
		return ErrBusy
	}
	c.xTxs++
	cs := &coordState{tx: tx, shards: shards, attempt: 1}
	c.coord[id] = cs
	c.sendPrepares(now, cs)
	return nil
}

// acceptShardTx admits one transaction of this node's shard into the
// local pool, remembering the gateway to notify once it applies (when
// the gateway is outside this group and cannot see it commit). A
// transaction that already applied — the group's leader replicated it
// before this member's own copy of the forward arrived — is notified
// immediately instead of registered, since the chain scan is already
// past it.
func (c *core) acceptShardTx(tx *types.Transaction, origin simnet.NodeID) {
	c.ctx.Pool.Add(tx)
	c.poke = true
	if slices.Contains(c.groups[c.shard], origin) {
		return
	}
	id := tx.Hash()
	if _, done := c.ctx.Chain.Receipt(id); done {
		c.ctx.Endpoint.Send(origin, MsgNotice, &CommitNotice{TxID: id, Shard: c.shard})
		return
	}
	c.notice[id] = origin
}

// prepare is the participant's phase one. Only the shard group's
// current leader votes — during an election nobody does, and the
// coordinator's timeout turns that silence into an abort-retry. Locks
// are all-or-nothing over the transaction's keys on this shard.
func (c *core) prepare(now time.Time, m *Prepare) *Vote {
	if !c.replica.IsLeader() {
		return nil
	}
	id := m.Tx.Hash()
	v := &Vote{TxID: id, Shard: c.shard, Attempt: m.Attempt, OK: true}
	keys := localKeys(c.part, m.Tx, c.shard)
	for _, k := range keys {
		if ent, held := c.locks[string(k)]; held && ent.owner != id && now.Before(ent.expires) {
			v.OK = false
			return v
		}
	}
	held := make([]string, len(keys))
	for i, k := range keys {
		held[i] = string(k)
		c.locks[held[i]] = lockEntry{owner: id, expires: now.Add(lockTTL)}
	}
	c.txLocks[id] = held
	c.sweepAt = earliest(c.sweepAt, now.Add(lockTTL))
	return v
}

// release frees every lock held for id on this node.
func (c *core) release(id types.Hash) {
	for _, ks := range c.txLocks[id] {
		if ent, held := c.locks[ks]; held && ent.owner == id {
			delete(c.locks, ks)
		}
	}
	delete(c.txLocks, id)
}

// sweepLocks drops expired locks so a vanished coordinator cannot wedge
// a key forever, and finds the next expiry among those left.
func (c *core) sweepLocks(now time.Time) {
	if c.sweepAt.IsZero() || now.Before(c.sweepAt) {
		return
	}
	c.sweepAt = time.Time{}
	for ks, ent := range c.locks {
		if now.Before(ent.expires) {
			c.sweepAt = earliest(c.sweepAt, ent.expires)
		} else {
			delete(c.locks, ks)
			delete(c.txLocks, ent.owner)
		}
	}
}

// sendPrepares opens (or reopens) phase one for a coordinated
// transaction.
func (c *core) sendPrepares(now time.Time, cs *coordState) {
	cs.votes, cs.backoff, cs.due = cs.votes[:0], false, now.Add(prepareTimeout)
	c.coordDue = earliest(c.coordDue, cs.due)
	m := &Prepare{Origin: c.ctx.Self, Attempt: cs.attempt, Tx: cs.tx}
	for _, s := range cs.shards {
		for _, peer := range c.groups[s] {
			if peer != c.ctx.Self {
				c.ctx.Endpoint.Send(peer, MsgPrepare, m)
			} else if v := c.prepare(now, m); v != nil {
				c.onVote(now, v)
			}
		}
	}
}

// onVote records one shard's verdict at the coordinator. The first vote
// per shard and attempt wins (a leadership handover may produce two).
func (c *core) onVote(now time.Time, v *Vote) {
	cs, ok := c.coord[v.TxID]
	if !ok || v.Attempt != cs.attempt || cs.backoff {
		return
	}
	if !v.OK {
		c.abortAttempt(now, v.TxID, cs)
		return
	}
	if slices.Contains(cs.votes, v.Shard) {
		return
	}
	if cs.votes = append(cs.votes, v.Shard); len(cs.votes) == len(cs.shards) {
		c.commit(v.TxID, cs)
	}
}

// commit closes 2PC with a commit: every member of every touched shard
// receives the decision, admits the transaction into its shard's
// ordered pipeline and releases its locks.
func (c *core) commit(id types.Hash, cs *coordState) {
	delete(c.coord, id)
	c.xCommits++
	c.decide(cs, &Decision{TxID: id, Commit: true, Origin: c.ctx.Self, Tx: cs.tx})
	// If this node is a member of a touched shard its own chain will
	// show the commit; otherwise every touched shard owes a notice.
	if !slices.Contains(cs.shards, c.shard) {
		c.awaiting[id] = cs.shards
	}
}

// abortAttempt closes the current phase one with an abort, scheduling a
// retry (with linear backoff) until maxAttempts.
func (c *core) abortAttempt(now time.Time, id types.Hash, cs *coordState) {
	c.decide(cs, &Decision{TxID: id, Commit: false, Origin: c.ctx.Self})
	if cs.attempt >= maxAttempts {
		delete(c.coord, id)
		c.xAborts++
		return
	}
	c.xRetries++
	cs.attempt++
	wait := time.Duration(cs.attempt)*retryBackoff +
		time.Duration(c.rng.Int63n(int64(retryBackoff)))
	cs.backoff, cs.due = true, now.Add(wait)
	c.coordDue = earliest(c.coordDue, cs.due)
}

// decide distributes a phase-two decision to every member of the
// touched shards, applying it locally where this node is one of them.
func (c *core) decide(cs *coordState, d *Decision) {
	for _, s := range cs.shards {
		for _, peer := range c.groups[s] {
			if peer == c.ctx.Self {
				c.applyDecision(d)
			} else {
				c.ctx.Endpoint.Send(peer, MsgDecide, d)
			}
		}
	}
}

// applyDecision is the participant's phase two: commit admits the
// transaction into the shard's pool (its consensus orders and executes
// it like any single-shard transaction); both outcomes release locks.
func (c *core) applyDecision(d *Decision) {
	c.release(d.TxID)
	if d.Commit && d.Tx != nil {
		c.acceptShardTx(d.Tx, d.Origin)
	}
}

// onNotice collects foreign-shard commit confirmations at the gateway;
// once every touched foreign shard confirmed, the commit is surfaced to
// the node's clients.
func (c *core) onNotice(m *CommitNotice) {
	need, ok := c.awaiting[m.TxID]
	if !ok {
		return
	}
	need = slices.DeleteFunc(need, func(s int) bool { return s == m.Shard })
	if c.awaiting[m.TxID] = need; len(need) > 0 {
		return
	}
	delete(c.awaiting, m.TxID)
	if _, dup := c.remote[m.TxID]; !dup {
		c.remote[m.TxID] = struct{}{}
		c.remoteQ = append(c.remoteQ, m.TxID)
	}
}

// flushForwards drains the gateway's accepted single-shard transactions
// and ships them to their groups as one batch per shard — key-affinity
// batching: a flush interval's worth of traffic to the same shard
// travels (and is pool-admitted) together instead of one message per
// transaction per member. A transaction bound for a foreign shard is
// registered as awaiting that shard's commit notice here, before its
// forward leaves.
func (c *core) flushForwards() {
	// Bounded per flush: oversized forwards would monopolize receiver
	// inboxes and link time; the excess stays queued (and the queue
	// bound turns into ErrBusy admission control at the gateway).
	flushed := c.outbound.Batch(512, 0)
	batches := make([][]*types.Transaction, len(c.groups))
	for _, tx := range flushed {
		s := TouchedShards(c.part, tx)[0]
		batches[s] = append(batches[s], tx)
	}
	for s, txs := range batches {
		if len(txs) == 0 {
			continue
		}
		for _, tx := range txs {
			if s == c.shard {
				c.acceptShardTx(tx, c.ctx.Self)
			} else {
				c.awaiting[tx.Hash()] = []int{s}
			}
		}
		m := &ForwardBatch{Origin: c.ctx.Self, Shard: s, Txs: txs}
		for _, peer := range c.groups[s] {
			if peer != c.ctx.Self {
				c.ctx.Endpoint.Send(peer, MsgForward, m)
			}
		}
	}
	c.fastpath += uint64(len(flushed))
	c.outbound.MarkIncluded(flushed)
}

// tickCoord advances the coordinator state machines that have come due
// — an overdue phase one aborts (and schedules a retry), a due retry
// reopens phase one — and finds the earliest instant among those left.
func (c *core) tickCoord(now time.Time) {
	if c.coordDue.IsZero() || now.Before(c.coordDue) {
		return
	}
	c.coordDue = time.Time{} // rebuilt below: both calls fold their new due in
	var due []types.Hash     // advanced in hash order: each sends and may draw jitter
	for id, cs := range c.coord {
		if now.Before(cs.due) {
			c.coordDue = earliest(c.coordDue, cs.due)
		} else {
			due = append(due, id)
		}
	}
	slices.SortFunc(due, func(a, b types.Hash) int { return bytes.Compare(a[:], b[:]) })
	for _, id := range due {
		if cs := c.coord[id]; cs.backoff {
			c.sendPrepares(now, cs)
		} else {
			c.abortAttempt(now, id, cs)
		}
	}
}
