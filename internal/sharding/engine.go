package sharding

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/consensus/raft"
	"blockbench/internal/simnet"
	"blockbench/internal/txpool"
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

// The gateway's and the 2PC protocol's fixed parameters: each has one
// value in use, so none is an option.
const (
	// forwardInterval is the gateway's flush cadence: accepted
	// single-shard transactions are forwarded to their group in
	// key-affinity batches on this tick (which also drives 2PC timeouts
	// and commit-notice scanning).
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
	tx       *types.Transaction
	shards   []int
	attempt  int
	votes    map[int]bool
	deadline time.Time // phase-one deadline; zero while backing off
	retryAt  time.Time // next re-prepare time; zero while phase one runs
}

// awaitState tracks the foreign shards whose commit notices the gateway
// still needs before surfacing a transaction to its client.
type awaitState struct{ need map[int]struct{} }

// noticeRec tracks one commit notice a shard member owes a remote
// gateway. Only the group's current leader sends (one notice per
// transaction per shard, not one per member); followers retain applied
// entries for noticeRetain as leader-failover cover, then assume the
// leader delivered and drop them.
type noticeRec struct {
	origin  simnet.NodeID
	applied time.Time // zero until the transaction is seen in a block
}

// noticeRetain is how long followers keep applied notice entries before
// presuming the leader delivered them.
const noticeRetain = 5 * time.Second

// Engine is one node's sharded execution stack: the inner consensus
// replica for the node's own shard group, the gateway router for client
// submissions, and the 2PC coordinator/participant roles. It implements
// consensus.Engine (the node drives it like any other consensus) and
// the node package's Router interface (client transactions are routed
// instead of pooled locally, and commits on foreign shards are surfaced
// back through BlocksFrom/Receipt).
type Engine struct {
	ctx    consensus.Context
	part   HashPartitioner
	groups [][]simnet.NodeID
	shard  int                    // this node's shard group
	member map[simnet.NodeID]bool // members of this node's group
	inner  *raft.Engine

	mu       sync.Mutex
	outbound *txpool.Pool               // accepted single-shard txs awaiting flush
	coord    map[types.Hash]*coordState // cross-shard txs this node coordinates
	locks    map[string]lockEntry       // participant lock table (shard leader)
	txLocks  map[types.Hash][]string    // reverse index for release
	awaiting map[types.Hash]*awaitState // txs whose foreign commits are pending
	notice   map[types.Hash]*noticeRec  // applied-tx notices owed, tx -> gateway
	remoteQ  []types.Hash               // commits ready to surface via BlocksFrom
	remote   map[types.Hash]struct{}    // every foreign commit surfaced (Receipt)
	scanned  uint64                     // chain height scanned for owed notices
	sweepAt  time.Time                  // next expired-lock sweep
	rng      *rand.Rand                 // retry-backoff jitter (guarded by mu)

	fastpath atomic.Uint64 // single-shard txs accepted (2PC bypassed)
	xTxs     atomic.Uint64 // cross-shard txs coordinated
	xCommits atomic.Uint64 // cross-shard txs committed
	xAborts  atomic.Uint64 // cross-shard txs abandoned after maxAttempts
	xRetries atomic.Uint64 // abort-retry rounds

	stop    chan struct{}
	done    sync.WaitGroup
	started atomic.Bool
}

// New builds the sharded engine for one node from resolved options
// (DefaultOptions states the defaults). The shard groups are
// computed from ctx.Peers, keys are hash-placed over exactly those
// groups, and the node's own group runs an inner Raft instance whose
// peer set is just that group.
func New(ctx consensus.Context, opts Options) *Engine {
	groups := Groups(ctx.Peers, opts.Shards)
	shard := GroupOf(groups, ctx.Self)
	if shard < 0 {
		panic(fmt.Sprintf("sharding: node %v not in any group", ctx.Self))
	}
	member := make(map[simnet.NodeID]bool, len(groups[shard]))
	for _, m := range groups[shard] {
		member[m] = true
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
	return &Engine{
		ctx:      ctx,
		part:     NewHashPartitioner(len(groups)),
		groups:   groups,
		shard:    shard,
		member:   member,
		inner:    raft.New(innerCtx, ropts),
		outbound: outbound,
		coord:    make(map[types.Hash]*coordState),
		locks:    make(map[string]lockEntry),
		txLocks:  make(map[types.Hash][]string),
		awaiting: make(map[types.Hash]*awaitState),
		notice:   make(map[types.Hash]*noticeRec),
		remote:   make(map[types.Hash]struct{}),
		rng:      rand.New(rand.NewSource(opts.Seed*6151 + int64(ctx.Self)*92821 + 3)),
		stop:     make(chan struct{}),
	}
}

// Shard returns this node's shard group index.
func (e *Engine) Shard() int { return e.shard }

// Shards returns the number of shard groups.
func (e *Engine) Shards() int { return len(e.groups) }

// Partition exposes the engine's partitioner (tests, skew tooling).
func (e *Engine) Partition() HashPartitioner { return e.part }

// Inner exposes the node's shard-group consensus replica.
func (e *Engine) Inner() *raft.Engine { return e.inner }

// LeaseRead implements the node package's lease-read hook: a gateway
// vouches for read freshness exactly when its own shard group's replica
// holds a live leader lease.
func (e *Engine) LeaseRead() bool { return e.inner.LeaseRead() }

// ApplyMismatch forwards the shard group's replica's (see
// raft.Engine.ApplyMismatch) to the invariant checker.
func (e *Engine) ApplyMismatch() (index, height uint64, ok bool) { return e.inner.ApplyMismatch() }

// Start implements consensus.Engine.
func (e *Engine) Start() {
	if !e.started.CompareAndSwap(false, true) {
		return
	}
	// Skip notice scanning over preloaded history: nothing in it was
	// routed through this engine.
	e.mu.Lock()
	e.scanned = e.ctx.Chain.Height()
	e.mu.Unlock()
	e.inner.Start()
	e.done.Add(1)
	go e.timerLoop()
}

// Stop implements consensus.Engine. Pending cross-shard coordinations
// are resolved as aborts so the commit/abort accounting stays exact.
func (e *Engine) Stop() {
	if !e.started.CompareAndSwap(true, false) {
		return
	}
	close(e.stop)
	e.done.Wait()
	e.inner.Stop()
	e.mu.Lock()
	for id := range e.coord {
		delete(e.coord, id)
		e.xAborts.Add(1)
	}
	e.mu.Unlock()
}

// Counters implements metrics.CounterProvider: the cross-shard commit
// protocol's counters, plus the inner consensus group's both raw (so
// cluster-wide aggregates like raft.elections keep working) and under a
// per-shard prefix (so shard imbalance is visible per group).
func (e *Engine) Counters() map[string]uint64 {
	// Resolutions are read before coordinations, so commits + aborts
	// never exceeds txs in any reading (the accounting invariant).
	out := map[string]uint64{
		"xshard.commits":  e.xCommits.Load(),
		"xshard.aborts":   e.xAborts.Load(),
		"xshard.txs":      e.xTxs.Load(),
		"xshard.fastpath": e.fastpath.Load(),
		"xshard.retries":  e.xRetries.Load(),
	}
	for k, v := range e.inner.Counters() {
		out[k] = v
		out[fmt.Sprintf("shard%d.%s", e.shard, k)] = v
	}
	return out
}

// SubmitTx implements the node package's Router: client submissions are
// routed by the shards their keys touch instead of entering the local
// pool. Single-shard transactions take the fast path (queued for the
// next key-affinity forward flush, no 2PC); cross-shard transactions
// open a two-phase commit with this node as coordinator.
func (e *Engine) SubmitTx(tx *types.Transaction) error {
	shards := TouchedShards(e.part, tx)
	id := tx.Hash()
	if len(shards) == 1 {
		if !e.outbound.Add(tx) {
			if e.outbound.Known(id) {
				return nil // duplicate: already routed
			}
			return ErrBusy
		}
		e.fastpath.Add(1)
		if shards[0] != e.shard {
			e.mu.Lock()
			e.awaiting[id] = &awaitState{need: map[int]struct{}{shards[0]: {}}}
			e.mu.Unlock()
		}
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.coord[id]; dup {
		return nil
	}
	if _, done := e.remote[id]; done {
		return nil
	}
	if len(e.coord) >= maxCoordinations {
		return ErrBusy
	}
	e.xTxs.Add(1)
	cs := &coordState{tx: tx, shards: shards, attempt: 1}
	e.coord[id] = cs
	e.sendPreparesLocked(id, cs)
	return nil
}

// DrainRemoteCommits implements Router: transaction IDs whose commits
// happened on shards this node is not a member of, ready to surface to
// this node's polling clients (each ID is delivered once).
func (e *Engine) DrainRemoteCommits() []types.Hash {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := e.remoteQ
	e.remoteQ = nil
	return out
}

// CommittedElsewhere implements Router: whether the gateway knows id
// committed on every foreign shard it touched.
func (e *Engine) CommittedElsewhere(id types.Hash) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.remote[id]
	return ok
}

// Handle implements consensus.Engine: inner consensus traffic from
// group members is passed through, sharding protocol messages are
// processed, everything else is declined.
func (e *Engine) Handle(msg simnet.Message) bool {
	switch msg.Type {
	case raft.MsgRequestVote, raft.MsgVote, raft.MsgAppend, raft.MsgAppendResp,
		raft.MsgSnapshot, consensus.MsgSyncReq, consensus.MsgSyncResp:
		// Consensus is per group: traffic from other groups' replicas
		// (broadcast elections reach everyone) must not leak into ours.
		// That includes the snapshot-install chain sync — every group
		// keeps its own canonical chain.
		if !e.member[msg.From] {
			return true
		}
		return e.inner.Handle(msg)
	case MsgForward, MsgPrepare, MsgVote, MsgDecide, MsgNotice:
	default:
		return false
	}
	if msg.Corrupt {
		return true // failed authentication, as elsewhere
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch msg.Type {
	case MsgForward:
		if m, ok := msg.Payload.(*ForwardBatch); ok && m.Shard == e.shard {
			for _, tx := range m.Txs {
				e.acceptShardTxLocked(tx, m.Origin)
			}
		}
	case MsgPrepare:
		if m, ok := msg.Payload.(*Prepare); ok {
			if v := e.prepareLocked(m); v != nil {
				e.ctx.Endpoint.Send(m.Origin, MsgVote, v)
			}
		}
	case MsgVote:
		if m, ok := msg.Payload.(*Vote); ok {
			e.onVoteLocked(m)
		}
	case MsgDecide:
		if m, ok := msg.Payload.(*Decision); ok {
			e.applyDecisionLocked(m)
		}
	case MsgNotice:
		if m, ok := msg.Payload.(*CommitNotice); ok {
			e.onNoticeLocked(m)
		}
	}
	return true
}

// acceptShardTxLocked admits one transaction of this node's shard into
// the local pool, remembering the gateway to notify once it applies
// (when the gateway is outside this group and cannot see it commit). A
// transaction that already applied — the group's leader replicated it
// before this member's own copy of the forward arrived — is notified
// immediately instead of registered, since the chain scan is already
// past it.
func (e *Engine) acceptShardTxLocked(tx *types.Transaction, origin simnet.NodeID) {
	e.ctx.Pool.Add(tx)
	if origin == e.ctx.Self || e.member[origin] {
		return
	}
	id := tx.Hash()
	if _, done := e.ctx.Chain.Receipt(id); done {
		e.ctx.Endpoint.Send(origin, MsgNotice, &CommitNotice{TxID: id, Shard: e.shard})
		return
	}
	e.notice[id] = &noticeRec{origin: origin}
}

// prepareLocked is the participant's phase one. Only the shard group's
// current leader votes — during an election nobody does, and the
// coordinator's timeout turns that silence into an abort-retry. Locks
// are all-or-nothing over the transaction's keys on this shard.
func (e *Engine) prepareLocked(m *Prepare) *Vote {
	if !e.inner.IsLeader() {
		return nil
	}
	id := m.Tx.Hash()
	v := &Vote{TxID: id, Shard: e.shard, Attempt: m.Attempt, OK: true}
	keys := localKeys(e.part, m.Tx, e.shard)
	now := time.Now()
	for _, k := range keys {
		if ent, held := e.locks[string(k)]; held && ent.owner != id && now.Before(ent.expires) {
			v.OK = false
			return v
		}
	}
	held := make([]string, len(keys))
	for i, k := range keys {
		ks := string(k)
		e.locks[ks] = lockEntry{owner: id, expires: now.Add(lockTTL)}
		held[i] = ks
	}
	e.txLocks[id] = held
	return v
}

// releaseLocked frees every lock held for id on this node.
func (e *Engine) releaseLocked(id types.Hash) {
	for _, ks := range e.txLocks[id] {
		if ent, held := e.locks[ks]; held && ent.owner == id {
			delete(e.locks, ks)
		}
	}
	delete(e.txLocks, id)
}

// sendPreparesLocked opens (or reopens) phase one for a coordinated
// transaction.
func (e *Engine) sendPreparesLocked(id types.Hash, cs *coordState) {
	cs.votes = make(map[int]bool, len(cs.shards))
	cs.deadline = time.Now().Add(prepareTimeout)
	cs.retryAt = time.Time{}
	m := &Prepare{Origin: e.ctx.Self, Attempt: cs.attempt, Tx: cs.tx}
	for _, s := range cs.shards {
		for _, peer := range e.groups[s] {
			if peer == e.ctx.Self {
				if v := e.prepareLocked(m); v != nil {
					e.onVoteLocked(v)
				}
				continue
			}
			e.ctx.Endpoint.Send(peer, MsgPrepare, m)
		}
	}
}

// onVoteLocked records one shard's verdict at the coordinator. The
// first vote per shard and attempt wins (a leadership handover may
// produce two).
func (e *Engine) onVoteLocked(v *Vote) {
	cs, ok := e.coord[v.TxID]
	if !ok || v.Attempt != cs.attempt || !cs.retryAt.IsZero() {
		return
	}
	if !v.OK {
		e.abortAttemptLocked(v.TxID, cs)
		return
	}
	if _, dup := cs.votes[v.Shard]; dup {
		return
	}
	cs.votes[v.Shard] = true
	if len(cs.votes) == len(cs.shards) {
		e.commitLocked(v.TxID, cs)
	}
}

// commitLocked closes 2PC with a commit: every member of every touched
// shard receives the decision, admits the transaction into its shard's
// ordered pipeline and releases its locks.
func (e *Engine) commitLocked(id types.Hash, cs *coordState) {
	delete(e.coord, id)
	e.xCommits.Add(1)
	e.decideLocked(id, cs, &Decision{TxID: id, Commit: true, Origin: e.ctx.Self, Tx: cs.tx})
	// If this node is a member of a touched shard its own chain will
	// show the commit; otherwise every touched shard owes a notice.
	mine := false
	for _, s := range cs.shards {
		if s == e.shard {
			mine = true
			break
		}
	}
	if !mine {
		need := make(map[int]struct{}, len(cs.shards))
		for _, s := range cs.shards {
			need[s] = struct{}{}
		}
		e.awaiting[id] = &awaitState{need: need}
	}
}

// abortAttemptLocked closes the current phase one with an abort,
// scheduling a retry (with linear backoff) until maxAttempts.
func (e *Engine) abortAttemptLocked(id types.Hash, cs *coordState) {
	e.decideLocked(id, cs, &Decision{TxID: id, Commit: false, Origin: e.ctx.Self})
	if cs.attempt >= maxAttempts {
		delete(e.coord, id)
		e.xAborts.Add(1)
		return
	}
	e.xRetries.Add(1)
	cs.attempt++
	cs.deadline = time.Time{}
	wait := time.Duration(cs.attempt)*retryBackoff +
		time.Duration(e.rng.Int63n(int64(retryBackoff)))
	cs.retryAt = time.Now().Add(wait)
}

// decideLocked distributes a phase-two decision to every member of the
// touched shards, applying it locally where this node is one of them.
func (e *Engine) decideLocked(id types.Hash, cs *coordState, d *Decision) {
	for _, s := range cs.shards {
		for _, peer := range e.groups[s] {
			if peer == e.ctx.Self {
				e.applyDecisionLocked(d)
				continue
			}
			e.ctx.Endpoint.Send(peer, MsgDecide, d)
		}
	}
}

// applyDecisionLocked is the participant's phase two: commit admits the
// transaction into the shard's pool (its consensus orders and executes
// it like any single-shard transaction); both outcomes release locks.
func (e *Engine) applyDecisionLocked(d *Decision) {
	e.releaseLocked(d.TxID)
	if d.Commit && d.Tx != nil {
		e.acceptShardTxLocked(d.Tx, d.Origin)
	}
}

// onNoticeLocked collects foreign-shard commit confirmations at the
// gateway; once every touched foreign shard confirmed, the commit is
// surfaced to the node's clients.
func (e *Engine) onNoticeLocked(m *CommitNotice) {
	aw, ok := e.awaiting[m.TxID]
	if !ok {
		return
	}
	delete(aw.need, m.Shard)
	if len(aw.need) > 0 {
		return
	}
	delete(e.awaiting, m.TxID)
	if _, dup := e.remote[m.TxID]; !dup {
		e.remote[m.TxID] = struct{}{}
		e.remoteQ = append(e.remoteQ, m.TxID)
	}
}

// timerLoop drives the gateway and participant background work: forward
// flushes, chain scans for owed commit notices, 2PC timeouts and
// retries, and expired-lock sweeps.
func (e *Engine) timerLoop() {
	defer e.done.Done()
	tick := time.NewTicker(forwardInterval)
	defer tick.Stop()
	for {
		select {
		case <-e.stop:
			return
		case now := <-tick.C:
			e.flushForwards()
			e.mu.Lock()
			e.scanNoticesLocked()
			e.tickCoordLocked(now)
			e.sweepLocksLocked(now)
			e.mu.Unlock()
		}
	}
}

// flushForwards drains the gateway's accepted single-shard transactions
// and ships them to their groups as one batch per shard — key-affinity
// batching: a flush interval's worth of traffic to the same shard
// travels (and is pool-admitted) together instead of one message per
// transaction per member.
func (e *Engine) flushForwards() {
	// Bounded per flush: oversized forwards would monopolize receiver
	// inboxes and link time; the excess stays queued (and the queue
	// bound turns into ErrBusy admission control at the gateway).
	flushed := e.outbound.Batch(512, 0)
	batches := make([][]*types.Transaction, len(e.groups))
	for _, tx := range flushed {
		s := TouchedShards(e.part, tx)[0]
		batches[s] = append(batches[s], tx)
	}
	for s, txs := range batches {
		if len(txs) == 0 {
			continue
		}
		m := &ForwardBatch{Origin: e.ctx.Self, Shard: s, Txs: txs}
		if s == e.shard {
			e.mu.Lock()
			for _, tx := range txs {
				e.acceptShardTxLocked(tx, e.ctx.Self)
			}
			e.mu.Unlock()
		}
		for _, peer := range e.groups[s] {
			if peer != e.ctx.Self {
				e.ctx.Endpoint.Send(peer, MsgForward, m)
			}
		}
	}
	if len(flushed) > 0 {
		e.outbound.MarkIncluded(flushed)
	}
}

// scanNoticesLocked walks newly applied blocks, marking owed notices
// applied, then delivers them: the group's current leader sends (one
// notice per transaction per shard), while followers retain applied
// entries for noticeRetain as failover cover — a leader that dies
// between apply and notice is succeeded by a member that still holds
// the entry — before presuming delivery and dropping them.
func (e *Engine) scanNoticesLocked() {
	if len(e.notice) == 0 {
		e.scanned = e.ctx.Chain.Height()
		return
	}
	now := time.Now()
	for _, b := range e.ctx.Chain.BlocksFrom(e.scanned, 0) {
		for _, tx := range b.Txs {
			if rec, owed := e.notice[tx.Hash()]; owed && rec.applied.IsZero() {
				rec.applied = now
			}
		}
		if n := b.Number(); n > e.scanned {
			e.scanned = n
		}
	}
	leader := e.inner.IsLeader()
	for id, rec := range e.notice {
		if rec.applied.IsZero() {
			continue
		}
		if leader {
			delete(e.notice, id)
			e.ctx.Endpoint.Send(rec.origin, MsgNotice, &CommitNotice{TxID: id, Shard: e.shard})
		} else if now.Sub(rec.applied) > noticeRetain {
			delete(e.notice, id)
		}
	}
}

// tickCoordLocked advances coordinator state machines: overdue phase
// ones abort (and schedule a retry), due retries reopen phase one.
func (e *Engine) tickCoordLocked(now time.Time) {
	for id, cs := range e.coord {
		switch {
		case !cs.retryAt.IsZero():
			if !now.Before(cs.retryAt) {
				e.sendPreparesLocked(id, cs)
			}
		case !cs.deadline.IsZero() && now.After(cs.deadline):
			e.abortAttemptLocked(id, cs)
		}
	}
}

// sweepLocksLocked drops expired locks so a vanished coordinator cannot
// wedge a key forever.
func (e *Engine) sweepLocksLocked(now time.Time) {
	if now.Before(e.sweepAt) {
		return
	}
	e.sweepAt = now.Add(lockTTL)
	for ks, ent := range e.locks {
		if !now.Before(ent.expires) {
			delete(e.locks, ks)
		}
	}
}
